package telemetry

import (
	"sync"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

func TestSpanHierarchyAndSteps(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	clock := simtime.NewClock()
	tr.AttachClock(clock)

	inv := tr.StartSpan("invocation")
	inv.Attr("mode", "horse")
	clock.Advance(10)
	res := tr.StartSpan("resume")
	res.Attr("policy", "horse")
	clock.Advance(34)
	res.Step("fastpath", 34)
	clock.Advance(110)
	res.Step("psm-merge", 110)
	res.End()
	clock.Advance(500)
	inv.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: resume first, then invocation.
	resume, invocation := spans[0], spans[1]
	if resume.Name != "resume" || invocation.Name != "invocation" {
		t.Fatalf("unexpected order: %q, %q", resume.Name, invocation.Name)
	}
	if resume.Parent != invocation.ID {
		t.Fatalf("resume.Parent = %d, want %d", resume.Parent, invocation.ID)
	}
	if invocation.Parent != 0 {
		t.Fatalf("invocation.Parent = %d, want 0 (root)", invocation.Parent)
	}
	if got := resume.Duration(); got != 144 {
		t.Fatalf("resume duration = %v, want 144ns", got)
	}
	if len(resume.Events) != 2 {
		t.Fatalf("resume has %d events, want 2", len(resume.Events))
	}
	if resume.Events[0].Name != "fastpath" || resume.Events[0].Start != 10 || resume.Events[0].Dur != 34 {
		t.Fatalf("fastpath event = %+v", resume.Events[0])
	}
	if resume.Events[1].Start != 44 || resume.Events[1].Dur != 110 {
		t.Fatalf("psm-merge event = %+v", resume.Events[1])
	}
	if policy, ok := resume.Attr("policy"); !ok || policy != "horse" {
		t.Fatalf("policy attr = %q, %v", policy, ok)
	}
	if invocation.Duration() != 654 {
		t.Fatalf("invocation duration = %v, want 654ns", invocation.Duration())
	}
}

func TestRingBufferBoundsStorage(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4})
	clock := simtime.NewClock()
	tr.AttachClock(clock)
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("op")
		clock.Advance(1)
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", tr.Total(), tr.Dropped())
	}
	// Oldest-first: the survivors are the last four spans.
	if spans[0].End != 7 || spans[3].End != 10 {
		t.Fatalf("survivors end at %v..%v, want 7..10", spans[0].End, spans[3].End)
	}
}

func TestAttachClockKeepsTimelineMonotonic(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	c1 := simtime.NewClock()
	tr.AttachClock(c1)
	sp := tr.StartSpan("run1")
	c1.Advance(100)
	sp.End()

	// A fresh clock restarts at 0; the tracer must keep moving forward
	// and assign a new track.
	c2 := simtime.NewClock()
	tr.AttachClock(c2)
	sp = tr.StartSpan("run2")
	c2.Advance(50)
	sp.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[1].Start < spans[0].End {
		t.Fatalf("second run starts at %v before first ends at %v", spans[1].Start, spans[0].End)
	}
	if spans[0].Track == spans[1].Track {
		t.Fatalf("runs share track %d", spans[0].Track)
	}
}

func TestDisabledAndNilTracersAreInert(t *testing.T) {
	// A nil *Tracer is the disabled tracer.
	var nilTracer *Tracer
	sp := nilTracer.StartSpan("x")
	if sp.Active() {
		t.Fatal("nil tracer returned an active span")
	}
	sp.Attr("k", "v")
	sp.Step("s", 1)
	sp.End()
	if nilTracer.Enabled() || nilTracer.Total() != 0 || nilTracer.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}

	tr := NewTracer(TracerOptions{})
	if !tr.Enabled() {
		t.Fatal("built tracer reports disabled")
	}
}

func TestOutOfOrderEndAndReset(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	clock := simtime.NewClock()
	tr.AttachClock(clock)
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	a.End() // parent ends before child
	clock.Advance(5)
	b.End()
	b.End() // double-end is a no-op
	if tr.OpenSpans() != 0 || tr.Total() != 2 {
		t.Fatalf("open=%d total=%d", tr.OpenSpans(), tr.Total())
	}
	tr.Reset()
	if tr.Total() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("reset did not clear spans")
	}
}

func TestTracerConcurrentUseIsSafe(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 128})
	tr.AttachClock(simtime.NewClock())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartSpan("op")
				sp.Attr("g", "x")
				sp.Step("step", 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 8*200 {
		t.Fatalf("total = %d, want 1600", tr.Total())
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("open spans = %d", tr.OpenSpans())
	}
}
