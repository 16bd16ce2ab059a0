package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestFinishedProcReleasesBody checks that a finished process no longer
// references its body: an object only the body captures must become
// collectable while the *Proc itself is still reachable.
func TestFinishedProcReleasesBody(t *testing.T) {
	k := NewKernel(1)
	collected := make(chan struct{})
	var p *Proc
	func() {
		obj := new([64]byte)
		runtime.SetFinalizer(obj, func(*[64]byte) { close(collected) })
		p = k.Spawn("holder", func(p *Proc) {
			p.Sleep(Second)
			obj[0] = 1
		})
	}()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(p)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(p)
	t.Fatal("finished process still pins the object its body captured")
}

// TestProcPanicNamesProcess checks that a panicking process makes Run
// panic with the process name and the panic value.
func TestProcPanicNamesProcess(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bystander", func(p *Proc) { p.Sleep(2 * Second) })
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(Second)
		panic("boom")
	})
	defer func() {
		got := recover()
		if want := `sim: process "bomb" panicked: boom`; got != want {
			t.Fatalf("Run panicked with %v, want %q", got, want)
		}
	}()
	err := k.Run()
	t.Fatalf("Run returned %v, want a panic", err)
}

// TestProcSwitchAllocsNothing gates the steady-state handoff at zero
// allocations: a Sleep round trip through the kernel, and a Park/Wake
// ping-pong between two processes. The count covers the kernel's share of
// each switch too, since it runs inside the measured call.
func TestProcSwitchAllocsNothing(t *testing.T) {
	k := NewKernel(1)
	var sleepAllocs, pingAllocs float64
	var a, b *Proc
	stop := false
	b = k.Spawn("b", func(p *Proc) {
		for {
			p.Park()
			if stop {
				return
			}
			k.Wake(a)
		}
	})
	a = k.Spawn("a", func(p *Proc) {
		sleepAllocs = testing.AllocsPerRun(200, func() { p.Sleep(Microsecond) })
		pingAllocs = testing.AllocsPerRun(200, func() {
			k.Wake(b)
			p.Park()
		})
		stop = true
		k.Wake(b)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sleepAllocs != 0 {
		t.Errorf("Sleep round trip: %v allocs, want 0", sleepAllocs)
	}
	if pingAllocs != 0 {
		t.Errorf("Park/Wake ping-pong: %v allocs, want 0", pingAllocs)
	}
}

// BenchmarkProcSwitch times one kernel/process handoff: a Sleep round trip,
// and a Park/Wake ping-pong between two processes (two switches each way
// per iteration).
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("sleep", func(b *testing.B) {
		k := NewKernel(1)
		k.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Nanosecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("park_wake", func(b *testing.B) {
		k := NewKernel(1)
		var ping, pong *Proc
		pong = k.Spawn("pong", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Park()
				k.Wake(ping)
			}
		})
		ping = k.Spawn("ping", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				k.Wake(pong)
				p.Park()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
