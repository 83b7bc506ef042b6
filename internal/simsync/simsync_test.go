package simsync

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/instr"
	"predator/internal/mem"
	"predator/internal/report"
	"predator/internal/sched"
)

// env builds a heap + runtime + instrumenter with test thresholds.
func env(t *testing.T) (*instr.Instrumenter, *core.Runtime) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return instr.New(h, rt, instr.Policy{}), rt
}

func TestMutexPoolMutualExclusion(t *testing.T) {
	in, _ := env(t)
	main := in.NewThread("main")
	pool, err := NewMutexPool(main, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]int, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				lock := i % pool.Len()
				pool.With(th, lock, func() { counters[lock]++ })
			}
		}(th)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 4*2000 {
		t.Errorf("lost updates: %d", total)
	}
}

// TestMutexPoolUnderScheduler: with one contended lock and turns that end
// inside critical sections, serialized workers still finish (a blocked Lock
// hands its turn on) and lose no update.
func TestMutexPoolUnderScheduler(t *testing.T) {
	for _, grain := range []int{4, 16, 64} {
		in, _ := env(t)
		pool, err := NewMutexPool(in.NewThread("main"), 1, 128)
		if err != nil {
			t.Fatal(err)
		}
		scheduler := sched.New(grain)
		counter := 0
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			th := in.NewThread("w")
			slot := scheduler.Register()
			th.SetSlot(slot)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer slot.Done()
				slot.WaitTurn()
				for i := 0; i < 500; i++ {
					pool.With(th, 0, func() { counter++ })
				}
			}()
		}
		scheduler.Start()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("grain %d: workers deadlocked on the pool lock", grain)
		}
		if counter != 4*500 {
			t.Errorf("grain %d: lost updates: %d", grain, counter)
		}
	}
}

func TestPackedPoolFalselyShares(t *testing.T) {
	in, rt := env(t)
	main := in.NewThread("main")
	pool, err := NewMutexPool(main, 16, 4) // 16 locks in one cache line
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread, id int) {
			defer wg.Done()
			for i := 0; i < 8000; i++ {
				// Thread-affine locks: cross-lock contention only.
				lock := (id*4 + i%4) % pool.Len()
				pool.Lock(th, lock)
				pool.Unlock(th, lock)
				if i%16 == 15 {
					runtime.Gosched()
				}
			}
		}(th, w)
	}
	wg.Wait()
	rep := rt.Report()
	found := false
	for _, f := range rep.FalseSharing() {
		if obj, ok := f.PrimaryObject(); ok && obj.Start == pool.Base() {
			found = true
		}
	}
	if !found {
		t.Errorf("packed mutex pool not flagged:\n%s", rep.String())
	}
}

func TestPaddedPoolClean(t *testing.T) {
	in, rt := env(t)
	main := in.NewThread("main")
	pool, err := NewMutexPool(main, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread, id int) {
			defer wg.Done()
			for i := 0; i < 8000; i++ {
				lock := (id*4 + i%4) % pool.Len()
				pool.Lock(th, lock)
				pool.Unlock(th, lock)
				if i%16 == 15 {
					runtime.Gosched()
				}
			}
		}(th, w)
	}
	wg.Wait()
	if fs := rt.Report().FalseSharing(); len(fs) != 0 {
		t.Errorf("padded pool flagged: %d findings", len(fs))
	}
}

func TestCounterArrayPackedVsPadded(t *testing.T) {
	for _, tc := range []struct {
		stride uint64
		dirty  bool
	}{{8, true}, {128, false}} {
		in, rt := env(t)
		main := in.NewThread("main")
		arr, err := NewCounterArray(main, 8, tc.stride)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			th := in.NewThread("w")
			wg.Add(1)
			go func(th *instr.Thread, id int) {
				defer wg.Done()
				for i := 0; i < 8000; i++ {
					arr.Add(th, id, 1)
					if i%16 == 15 {
						runtime.Gosched()
					}
				}
			}(th, w)
		}
		wg.Wait()
		got := len(rt.Report().FalseSharing()) > 0
		if got != tc.dirty {
			t.Errorf("stride %d: false sharing = %v, want %v", tc.stride, got, tc.dirty)
		}
		if sum := arr.Load(main, 0); sum != 8000 {
			t.Errorf("stride %d: counter 0 = %d", tc.stride, sum)
		}
	}
}

func TestSimBarrierSynchronizesAndClassifiesTrue(t *testing.T) {
	in, rt := env(t)
	main := in.NewThread("main")
	const parties = 4
	b, err := NewSimBarrier(main, parties)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 500
	var mu sync.Mutex
	maxInRound := 0
	inRound := 0
	var wg sync.WaitGroup
	for w := 0; w < parties; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				inRound++
				if inRound > maxInRound {
					maxInRound = inRound
				}
				mu.Unlock()
				b.Wait(th)
				mu.Lock()
				inRound--
				mu.Unlock()
			}
		}(th)
	}
	wg.Wait()
	if maxInRound != parties {
		t.Errorf("barrier never gathered all %d parties (max %d)", parties, maxInRound)
	}
	// The barrier words are heavy TRUE sharing — they must never be
	// reported as false sharing.
	if fs := rt.Report().FalseSharing(); len(fs) != 0 {
		t.Errorf("barrier words misclassified as false sharing:\n%s", rt.Report().String())
	}
	sawTrue := false
	for _, f := range rt.Report().Findings {
		if f.Sharing == report.SharingTrue {
			sawTrue = true
		}
	}
	if !sawTrue {
		t.Error("barrier contention produced no true-sharing finding")
	}
}

func TestConstructorValidation(t *testing.T) {
	in, _ := env(t)
	main := in.NewThread("main")
	if _, err := NewMutexPool(main, 0, 64); err == nil {
		t.Error("zero-size pool accepted")
	}
	if _, err := NewMutexPool(main, 4, 2); err == nil {
		t.Error("sub-word stride accepted")
	}
	if _, err := NewCounterArray(main, -1, 64); err == nil {
		t.Error("negative counter array accepted")
	}
	if _, err := NewCounterArray(main, 4, 4); err == nil {
		t.Error("sub-word counter stride accepted")
	}
	if _, err := NewSimBarrier(main, 0); err == nil {
		t.Error("zero-party barrier accepted")
	}
}
