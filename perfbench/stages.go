package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/freqdomain"
	"repro/internal/label"
	"repro/internal/nmf"
	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/timedomain"
)

// Defaults core.AnalyzeContext applies to a zero core.Options; the traced
// stage calls below must use the same values.
const (
	minClusters  = 2
	maxClusters  = 10
	smoothWindow = 3
)

// tracedAnalyze makes, one traced span each, the stage calls that
// core.AnalyzeContext makes for opts (float64 precision, the default
// linkage, tuner and radius), in the same order, and checks that they
// reach the same decisions as res, the untraced call's result on the same
// dataset. It returns the summed duration of the stage spans.
func tracedAnalyze(ctx context.Context, t *tracer, parent int, ds *pipeline.Dataset, pois []poi.POI, opts core.Options, res *core.Result) (float64, error) {
	if opts.Precision != core.Float64 || opts.ForceK != 0 || opts.KMeansRestarts != 0 {
		return 0, fmt.Errorf("traced analysis covers the default float64 path only")
	}
	var total float64
	stage := func(name string, f func() error) error {
		d, err := t.do(name, parent, f)
		total += d.Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	if err := stage("pipeline.validate", ds.Validate); err != nil {
		return 0, err
	}
	var dendro *cluster.Dendrogram
	if err := stage("cluster.hierarchical", func() (err error) {
		dendro, err = cluster.HierarchicalWorkersCtx(ctx, ds.Normalized, cluster.AverageLinkage, opts.Workers)
		return err
	}); err != nil {
		return 0, err
	}
	var (
		k      int
		assign *cluster.Assignment
	)
	if err := stage("cluster.dbi_tuner", func() (err error) {
		maxK := min(maxClusters, ds.NumTowers())
		k, _, err = cluster.OptimalKCtx(ctx, ds.Normalized, dendro, min(minClusters, maxK), maxK, opts.Workers)
		if err != nil {
			return err
		}
		assign, err = dendro.CutK(k)
		return err
	}); err != nil {
		return 0, err
	}
	if opts.NMFRank != 0 {
		var nres *nmf.Result
		if err := stage("nmf.factorize", func() (err error) {
			rank := opts.NMFRank
			if rank == core.NMFRankAuto {
				rank = min(k, ds.NumSlots())
			}
			nres, err = nmf.FactorizeContext(ctx, ds.Raw, nmf.Options{Rank: rank, Seed: opts.Seed, Workers: opts.Workers})
			if err == nil {
				nres.DominantBasis()
			}
			return err
		}); err != nil {
			return 0, err
		}
		if res.NMF == nil || nres.Iterations != res.NMF.Iterations || !slices.Equal(nres.H.Data, res.NMF.H.Data) {
			return 0, fmt.Errorf("traced NMF differs from core.AnalyzeContext's")
		}
	}
	var towerPOI []poi.Counts
	if err := stage("poi.count", func() error {
		counter, err := poi.NewCounter(pois, poi.DefaultRadiusMeters)
		if err != nil {
			return err
		}
		towerPOI = counter.CountAll(ds.Locations, poi.DefaultRadiusMeters)
		return nil
	}); err != nil {
		return 0, err
	}
	members := assign.Members()
	var labeling *label.Result
	if err := stage("label.clusters", func() (err error) {
		labeling, err = label.LabelClusters(towerPOI, members)
		if err != nil {
			return err
		}
		_, err = label.TowerLabels(labeling.Labels, assign.Labels)
		return err
	}); err != nil {
		return 0, err
	}
	var (
		plan     *dsp.Plan
		features []freqdomain.Features
	)
	if err := stage("freqdomain.extract", func() (err error) {
		plan, err = dsp.AcquirePlan(ds.NumSlots())
		if err != nil {
			return err
		}
		features, err = freqdomain.ExtractPlanContext(ctx, plan, ds.Normalized, ds.Days)
		return err
	}); err != nil {
		return 0, err
	}
	defer plan.Release()
	if err := stage("freqdomain.representatives", func() error {
		_, err := freqdomain.RepresentativeTowers(features, assign, freqdomain.RepOptions{})
		return err
	}); err != nil {
		return 0, err
	}
	if err := stage("cluster.centroids", func() error {
		_, err := cluster.Centroids(ds.Normalized, assign)
		return err
	}); err != nil {
		return 0, err
	}
	if err := stage("timedomain.summarize", func() error {
		clock := timedomain.Clock{Start: ds.Start, SlotMinutes: ds.SlotMinutes}
		for _, m := range members {
			if len(m) == 0 {
				continue
			}
			agg, err := ds.AggregateRaw(m)
			if err != nil {
				return err
			}
			if _, err := timedomain.Summarize(agg, clock, smoothWindow); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}

	if k != res.OptimalK || !slices.Equal(assign.Labels, res.Assignment.Labels) || !slices.Equal(labeling.Labels, res.ClusterLabels) {
		return 0, fmt.Errorf("traced stages chose k=%d and labels unlike core.AnalyzeContext (k=%d)", k, res.OptimalK)
	}
	return total, nil
}
