package experiments

import (
	"reflect"
	"testing"
)

// TestParallelMatchesSerial is the determinism regression for the farm
// engine: running with 8 workers must produce byte-identical reports and
// deeply equal typed results to the historical serial path (Workers=1).
// Seeds derive from the die/trial index, workers fill index-addressed
// slots, and callers reduce serially in loop order, so float accumulation
// order — and therefore every digit of output — is independent of the
// worker count. The timeline sweeps among them (fig7, fig11, fig12,
// sec74, ext-sched) also prove their blobs carry no wall-clock field.
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig7", "fig11", "fig12", "sec74", "ext-sched", "ext-sann-par", "ext-adapt"} {
		serialEnv, err := QuickEnv()
		if err != nil {
			t.Fatal(err)
		}
		serialEnv.Workers = 1
		parEnv, err := QuickEnv()
		if err != nil {
			t.Fatal(err)
		}
		parEnv.Workers = 8

		serial, err := Run(id, serialEnv)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		par, err := Run(id, parEnv)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if s, p := serial.Render(), par.Render(); s != p {
			t.Errorf("%s: parallel render differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: typed results differ:\nserial:   %#v\nparallel: %#v", id, serial, par)
		}
	}
}
