package apps

import (
	"context"
	"fmt"
	"testing"

	"munin"
)

// TestDemos runs every registry entry on the simulator under both
// release-consistency engines, at its smallest machine and at four
// processors. Each demo's own Check validates the output, so a demo
// that aborts or computes a wrong value fails here rather than in front
// of someone tracing it.
func TestDemos(t *testing.T) {
	for _, d := range Demos() {
		procs := []int{d.MinProcs}
		if d.MinProcs != 4 {
			procs = append(procs, 4)
		}
		for _, p := range procs {
			for _, cons := range munin.Consistencies() {
				d, p, cons := d, p, cons
				t.Run(fmt.Sprintf("%s/p%d/%v", d.Name, p, cons), func(t *testing.T) {
					if d.Adaptive && cons == munin.LazyRC {
						t.Skip("the adaptive engine does not run under the lazy engine")
					}
					app, err := d.New(DemoConfig{Procs: p})
					if err != nil {
						t.Fatal(err)
					}
					opts := []munin.RunOption{munin.WithConsistency(cons)}
					if d.Adaptive {
						opts = append(opts, munin.WithAdaptive())
					}
					r, err := app.Run(context.Background(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					if d.Adaptive && r.AdaptSwitches == 0 {
						t.Error("adaptive demo committed no switch")
					}
				})
			}
		}
	}
}
