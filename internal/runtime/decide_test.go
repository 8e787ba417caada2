package runtime

import (
	"errors"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/topo"
)

func newDecideRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(Config{Config: core.Config{Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 16}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// TestDecideEarlyEngineAdopted: a decision for a launch not started yet,
// filed from several goroutines at once, creates one engine, which start
// then adopts with the decision in it.
func TestDecideEarlyEngineAdopted(t *testing.T) {
	rt := newDecideRuntime(t)
	audit := &core.AuditResult{Output: []byte("agreed")}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				rt.Decide(Decision{Launch: 3, K: 2, Mismatch: true})
			} else {
				rt.Decide(Decision{Launch: 3, K: 2, Audit: audit})
			}
		}(i)
	}
	wg.Wait()
	rt.engMu.RLock()
	early, n := rt.engines[3], len(rt.engines)
	rt.engMu.RUnlock()
	if early == nil || n != 1 {
		t.Fatalf("engines after early decisions: %d, launch 3's present: %v", n, early != nil)
	}
	eng := rt.start(3, 2)
	if eng != early {
		t.Fatal("start did not adopt the early engine")
	}
	if mm, err := eng.NeedMismatch(); err != nil || !mm {
		t.Errorf("NeedMismatch = %v, %v; want true, nil", mm, err)
	}
	if a, err := eng.NeedAudit(); err != nil || a != audit {
		t.Errorf("NeedAudit = %v, %v; want the filed audit", a, err)
	}
}

// TestDecideDropsPastAndFarLaunches: a decision for a finished launch, for
// a launch the scheduler skipped, or for one beyond pendingSlack creates
// no engine, so a stream of decisions for every launch number holds at
// most pendingSlack engines.
func TestDecideDropsPastAndFarLaunches(t *testing.T) {
	rt := newDecideRuntime(t)
	rt.unregister(rt.start(1, 1)) // launch 1 ran and finished
	rt.start(3, 2)                // launch 2 was skipped
	slack := rt.pendingSlack()
	for _, launch := range []uint64{1, 2, 3 + slack + 1, 3 + 10*slack} {
		rt.Decide(Decision{Launch: launch, Mismatch: true})
	}
	rt.engMu.RLock()
	n := len(rt.engines)
	rt.engMu.RUnlock()
	if n != 1 {
		t.Fatalf("%d engines after decisions for past and far launches, want launch 3's only", n)
	}
	for launch := uint64(1); launch <= 3+10*slack; launch++ {
		rt.Decide(Decision{Launch: launch, Mismatch: true})
	}
	rt.engMu.RLock()
	n = len(rt.engines)
	rt.engMu.RUnlock()
	if want := 1 + int(slack); n != want {
		t.Fatalf("%d engines after a decision for every launch, want %d", n, want)
	}
}

// TestDecideReleasesNeedWaits: a Need* wait returns once Decide files its
// decision, once the execution aborts (errAborted), and once FailDecisions
// fails it (an error naming the instance) — as does every later wait.
func TestDecideReleasesNeedWaits(t *testing.T) {
	rt := newDecideRuntime(t)
	stop := errors.New("stream gone")
	for _, tc := range []struct {
		name    string
		release func(eng *instanceEngine)
		check   func(mm bool, err error) bool
	}{
		{"decide", func(eng *instanceEngine) { rt.Decide(Decision{Launch: eng.launch, Mismatch: true}) },
			func(mm bool, err error) bool { return mm && err == nil }},
		{"abort", func(eng *instanceEngine) { eng.abort() },
			func(_ bool, err error) bool { return errors.Is(err, errAborted) }},
		{"fail", func(*instanceEngine) { rt.FailDecisions(stop) },
			func(_ bool, err error) bool {
				return errors.Is(err, stop) && strings.Contains(err.Error(), "instance 7")
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt.nextLaunch++
			eng := rt.start(rt.nextLaunch, 7)
			type result struct {
				mm  bool
				err error
			}
			done := make(chan result, 1)
			go func() {
				mm, err := eng.NeedMismatch()
				done <- result{mm, err}
			}()
			awaitParked(t, "(*instanceEngine).await")
			tc.release(eng)
			select {
			case r := <-done:
				if !tc.check(r.mm, r.err) {
					t.Errorf("NeedMismatch = %v, %v", r.mm, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("NeedMismatch still waiting")
			}
		})
	}
	rt.nextLaunch++
	if _, err := rt.start(rt.nextLaunch, 8).NeedAudit(); !errors.Is(err, stop) {
		t.Errorf("NeedAudit after FailDecisions = %v, want the failure", err)
	}
}

// awaitParked waits until some goroutine's stack shows fn.
func awaitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if strings.Contains(string(buf[:goruntime.Stack(buf, true)]), fn) {
			return
		}
		goruntime.Gosched()
	}
	t.Fatalf("no goroutine reached %s", fn)
}
