//go:build !amd64

package main

// cpuModel is not known off amd64 without reading system files.
func cpuModel() string { return "unknown" }
