package trigtrace

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// recordArrival records one trigger on rec: a clean serve of latency
// lat, or a failed one (a must-keep violator) when fail is set.
func recordArrival(rec *Recorder, seq uint64, lat simtime.Duration, fail bool) {
	tc := rec.Start(seq, "scan", "horse", simtime.Time(seq), 1000)
	tc.SetTenant("acme")
	tc.SetNode("node-0")
	tc.RecordOn(StagePlacement, 0, 0, "node-0", "", "round-robin")
	tc.RecordOn(StageQueueWait, 0, 10, "", "", "")
	if fail {
		tc.Reroute(10, "node-0", "node-failed")
		tc.Complete(Outcome{Err: "no healthy node"})
		return
	}
	tc.RecordOn(StageResume, 10, 150, "", "horse", "")
	tc.RecordOn(StageInvoke, 160, lat-160, "", "horse", "")
	tc.Complete(Outcome{Served: "horse", Node: "node-0", Latency: lat})
}

// TestTracesSurviveRecycling pins that Traces hands out copies: traces
// taken from a recorder stay byte-identical while the recorder recycles
// its own through 10k further arrivals, retained, dropped and evicted.
func TestTracesSurviveRecycling(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 3, Capacity: 4, WorstK: 2})
	for seq := uint64(0); seq < 64; seq++ {
		recordArrival(rec, seq, simtime.Duration(200+seq%13), seq%5 == 0)
	}
	taken := rec.Traces()
	if len(taken) == 0 {
		t.Fatal("setup retained no traces")
	}
	before, err := json.Marshal(taken)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(64); seq < 64+10_000; seq++ {
		recordArrival(rec, seq, simtime.Duration(200+seq%17), seq%3 == 0)
	}
	after, err := json.Marshal(taken)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("traces taken before 10k arrivals changed:\nbefore %s\nafter  %s", before, after)
	}
	if rec.Violations() <= 4 {
		t.Fatal("the must-keep ring (capacity 4) never overflowed, so eviction recycling went untested")
	}
}

// TestRecycledTraceIsClean pins that Start overwrites a recycled trace
// whole: nothing of the previous trigger — tenant, error, failovers,
// stages, cached ID text — leaks into the next one.
func TestRecycledTraceIsClean(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 5, WorstK: 1})
	// Fill the one worst-K slot with a trace nothing outranks.
	recordArrival(rec, 0, 1_000_000, false)

	old := rec.Start(1, "scan", "warm", 10, 1000)
	old.SetTenant("acme")
	old.SetNode("node-3")
	old.Reroute(10, "node-3", "node-failed")
	old.RecordOn(StageInvoke, 10, 50, "", "warm", "")
	if old.tr.IDString() == "" {
		t.Fatal("no ID text cached")
	}
	oldTrace := old.tr
	old.Complete(Outcome{Served: "warm", Node: "node-3", Latency: 50, Err: ""})
	if len(rec.free) != 1 || rec.free[0] != oldTrace {
		t.Fatalf("dropped trace not on the free list: %v", rec.free)
	}

	next := rec.Start(2, "nat", "horse", 20, 0)
	if next.tr != oldTrace {
		t.Fatal("Start did not reuse the freed trace")
	}
	got := *next.tr
	if got.Stages == nil || len(got.Stages) != 0 {
		t.Fatalf("recycled stage list = %v (nil %v), want empty with its backing array kept", got.Stages, got.Stages == nil)
	}
	got.Stages = nil
	want := TriggerTrace{ID: NewTraceID(5, 2), Seq: 2, Function: "nat", Requested: "horse", Arrival: 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled trace = %+v, want %+v", got, want)
	}
	if id := next.tr.IDString(); id != NewTraceID(5, 2).String() {
		t.Fatalf("IDString = %q, want the new trace's ID", id)
	}
}

// TestStartResetsEveryField dirties every field of a free trace,
// exported or not, and pins that Start resets each one: Start assigns
// the fields one by one, so a field added to TriggerTrace and not to
// Start fails here.
func TestStartResetsEveryField(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 3})
	dirty := &TriggerTrace{Stages: make([]StageRecord, 2, 4)}
	v := reflect.ValueOf(dirty).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Slice:
		default:
			t.Fatalf("field %s has kind %s, which this test cannot dirty", v.Type().Field(i).Name, f.Kind())
		}
	}
	rec.free = append(rec.free, dirty)
	got := rec.Start(4, "scan", "warm", 10, 1000).tr
	if got != dirty {
		t.Fatal("Start did not reuse the free trace")
	}
	if len(got.Stages) != 0 || cap(got.Stages) != 4 {
		t.Fatalf("stage list len %d cap %d, want empty with its backing array kept", len(got.Stages), cap(got.Stages))
	}
	want := TriggerTrace{ID: NewTraceID(3, 4), Seq: 4, Function: "scan", Requested: "warm", Arrival: 10, Budget: 1000, Stages: got.Stages}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("recycled trace = %+v, want %+v", *got, want)
	}
}

// TestRecycledTracePathAllocFree pins the saving: once the free list is
// warm, a dropped trigger's trace — start, stages, completion — comes
// back for the next arrival and allocates nothing.
func TestRecycledTracePathAllocFree(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 1, WorstK: 1})
	recordArrival(rec, 0, 1_000_000, false)
	seq := uint64(1)
	for ; seq < 200; seq++ {
		recordArrival(rec, seq, 300, false)
	}
	if n := testing.AllocsPerRun(1000, func() {
		recordArrival(rec, seq, 300, false)
		seq++
	}); n != 0 {
		t.Fatalf("recycled trace path allocates %v per trigger, want 0", n)
	}
}

// TestRecorderConcurrentRecycling drives one recorder from several
// goroutines, as clusters sharing it through Cluster.SetTrace do: the
// free list is popped by Start and fed by evictions under the
// recorder's mutex. Run under -race (CI does).
func TestRecorderConcurrentRecycling(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(RecorderOptions{Seed: 9, Capacity: 4, WorstK: 2, Metrics: reg})
	const workers, perWorker = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq := uint64(w*perWorker + i)
				recordArrival(rec, seq, simtime.Duration(200+i%7), i%4 == 0)
			}
		}(w)
	}
	wg.Wait()
	if got, want := reg.Counter("trigtrace_traces_total").Value(), uint64(workers*perWorker); got != want {
		t.Fatalf("traces finished = %d, want %d", got, want)
	}
	if got := len(rec.Traces()); got == 0 || got > 4+2 {
		t.Fatalf("retained %d traces, want 1..6 (ring 4 + worst-K 2)", got)
	}
}
