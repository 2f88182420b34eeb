package tau

import "testing"

// TestRestoreEventsRewindsStatsAndRemovesNewEvents verifies that restoring
// an event checkpoint rewinds existing events in place (pointer identity
// preserved) and removes events first triggered after the checkpoint.
func TestRestoreEventsRewindsStatsAndRemovesNewEvents(t *testing.T) {
	clock := 0.0
	p := NewProfile(func() float64 { return clock })
	p.TriggerEvent("bytes sent", 100)
	p.TriggerEvent("bytes sent", 300)
	before := p.Event("bytes sent")
	var cp EventsCheckpoint
	p.CheckpointEvents(&cp)

	p.TriggerEvent("bytes sent", 900)
	p.TriggerEvent("bytes received", 64)
	p.RestoreEvents(cp)

	e := p.Event("bytes sent")
	if e != before {
		t.Fatal("restore must preserve event identity")
	}
	if e.Count() != 2 || e.Mean() != 200 || e.Max() != 300 || e.Min() != 100 {
		t.Errorf("restored stats wrong: count=%d mean=%v min=%v max=%v", e.Count(), e.Mean(), e.Min(), e.Max())
	}
	if p.Event("bytes received") != nil {
		t.Error("event created after checkpoint must be removed")
	}
	if got := len(p.Events()); got != 1 {
		t.Errorf("event order length: got %d, want 1", got)
	}

	// Re-triggering a removed event recreates it from scratch.
	p.TriggerEvent("bytes received", 8)
	if e := p.Event("bytes received"); e == nil || e.Count() != 1 {
		t.Error("re-created event should start fresh")
	}
}

// TestRestoreEventsRejectsForeignCheckpoint verifies prefix checking.
func TestRestoreEventsRejectsForeignCheckpoint(t *testing.T) {
	clock := 0.0
	p := NewProfile(func() float64 { return clock })
	q := NewProfile(func() float64 { return clock })
	p.TriggerEvent("a", 1)
	q.TriggerEvent("b", 1)
	var cp EventsCheckpoint
	p.CheckpointEvents(&cp)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic restoring a foreign checkpoint")
		}
	}()
	q.RestoreEvents(cp)
}
