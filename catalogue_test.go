package wanshuffle_test

import (
	"context"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/jobs"
	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/workloads"
)

// catalogueRow is one row of README's metrics catalogue.
type catalogueRow struct {
	typ    string
	labels []string // sorted label keys
}

// readCatalogue parses the table under README's "Metrics catalogue"
// heading into metric name → row.
func readCatalogue(t *testing.T) map[string]catalogueRow {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### Metrics catalogue\n")
	if !ok {
		t.Fatal(`README has no "### Metrics catalogue" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := map[string]catalogueRow{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "| `") || len(cells) < 3 {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		var labels []string
		for _, l := range strings.Split(cells[2], ",") {
			if l = strings.Trim(strings.TrimSpace(l), "`"); l != "" && l != "—" {
				labels = append(labels, l)
			}
		}
		slices.Sort(labels)
		if _, dup := rows[name]; dup {
			t.Fatalf("catalogue lists %s twice", name)
		}
		rows[name] = catalogueRow{typ: strings.TrimSpace(cells[1]), labels: labels}
	}
	if len(rows) == 0 {
		t.Fatal("metrics catalogue table is empty")
	}
	return rows
}

// checkCatalogued fails once per metric name that is missing from the
// catalogue or emitted with a type or label keys other than its row's.
func checkCatalogued(t *testing.T, rows map[string]catalogueRow, source string, points []obs.MetricPoint) {
	t.Helper()
	if len(points) == 0 {
		t.Fatalf("%s emitted no series", source)
	}
	failed := map[string]bool{}
	for _, p := range points {
		if failed[p.Name] {
			continue
		}
		row, ok := rows[p.Name]
		if !ok {
			t.Errorf("%s emits %s, which the README catalogue does not list", source, p.Name)
			failed[p.Name] = true
			continue
		}
		keys := make([]string, 0, len(p.Labels))
		for k := range p.Labels {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if p.Type != row.typ || !slices.Equal(keys, row.labels) {
			t.Errorf("%s emits %s as %s with labels %v; the catalogue says %s with %v",
				source, p.Name, p.Type, keys, row.typ, row.labels)
			failed[p.Name] = true
		}
	}
}

// TestMetricsCatalogueMatchesEmittedSeries keeps README's metrics
// catalogue honest: every series a simulated run, a budgeted live run and
// the job service emit must be listed with the same type and label keys.
func TestMetricsCatalogueMatchesEmittedSeries(t *testing.T) {
	rows := readCatalogue(t)
	wc, err := workloads.ByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sim", func(t *testing.T) {
		ctx := core.NewContext(core.Config{
			Seed:   1,
			Scheme: core.SchemeAggShuffle,
			Exec:   exec.Config{AggregatorPolicy: plan.AggregatorBandwidth},
		})
		inst := wc.Make(ctx, workloads.Options{Seed: 1, Scale: 0.05})
		if _, err := ctx.Save(inst.Target); err != nil {
			t.Fatal(err)
		}
		checkCatalogued(t, rows, "sim run", ctx.Engine().Events.Registry().Snapshot())
	})

	t.Run("live", func(t *testing.T) {
		cluster, err := livecluster.New(livecluster.Config{
			Workers: 4, Mode: livecluster.ModePush,
			AggregatorPolicy: plan.AggregatorBandwidth,
			MemoryBudget:     4 << 10, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		ctx := core.NewContext(core.Config{Seed: 1, Scheme: core.SchemeAggShuffle})
		inst := wc.Make(ctx, workloads.Options{Seed: 1, Scale: 0.05})
		_, stats, err := cluster.Run(inst.Target)
		if err != nil {
			t.Fatal(err)
		}
		checkCatalogued(t, rows, "live run", stats.Events.Registry().Snapshot())
	})

	t.Run("jobs", func(t *testing.T) {
		svc := jobs.New(jobs.Config{MaxQueuedBytes: 1 << 20})
		defer svc.Close()
		var report *obs.Report
		for _, sub := range []jobs.Submission{
			{Tenant: "a", Name: "wordcount", Run: func(c context.Context) (*obs.Report, error) {
				ctx := core.NewContext(core.Config{Seed: 1, Scheme: core.SchemeAggShuffle})
				inst := wc.Make(ctx, workloads.Options{Seed: 1, Scale: 0.02})
				rep, err := ctx.SaveContext(c, inst.Target)
				if err != nil {
					return nil, err
				}
				report = rep.RunReport("wordcount")
				return report, nil
			}},
			{Tenant: "a", Name: "fails", Run: func(context.Context) (*obs.Report, error) {
				return nil, errors.New("boom")
			}},
			{Tenant: "b", Name: "expires", Deadline: time.Millisecond, Run: func(c context.Context) (*obs.Report, error) {
				<-c.Done()
				return nil, c.Err()
			}},
		} {
			job, err := svc.Submit(sub)
			if err != nil {
				t.Fatal(err)
			}
			job.Wait()
		}
		if _, err := svc.Submit(jobs.Submission{Tenant: "b", EstBytes: 2 << 20, Run: func(context.Context) (*obs.Report, error) {
			return nil, nil
		}}); !jobs.IsRejected(err) {
			t.Fatalf("oversized submission: err = %v, want a rejection", err)
		}
		checkCatalogued(t, rows, "job service", svc.Registry().Snapshot())
		checkCatalogued(t, rows, "job run report", report.Metrics)
	})
}
