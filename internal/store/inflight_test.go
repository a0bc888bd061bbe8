package store

import (
	"context"
	"errors"
	"testing"
	"time"
)

func inflightTiered(t *testing.T) *Tiered {
	t.Helper()
	hot, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewTiered(hot, nil)
}

// TestInflightLeaderPublish: the first BeginCompute leads, a second waits,
// and FinishCompute(nil error) wakes the waiter with the leader's value.
func TestInflightLeaderPublish(t *testing.T) {
	tv := inflightTiered(t)
	leader, wait := tv.BeginCompute("k")
	if !leader || wait != nil {
		t.Fatalf("first BeginCompute: leader=%v wait=%p, want leader with nil wait", leader, wait)
	}
	leader2, wait2 := tv.BeginCompute("k")
	if leader2 || wait2 == nil {
		t.Fatal("second BeginCompute for an in-flight key must be a waiter")
	}
	if n := tv.InflightWaiters("k"); n != 1 {
		t.Fatalf("InflightWaiters = %d, want 1", n)
	}

	got := make(chan any, 1)
	go func() {
		v, ok := wait2(context.Background(), 0)
		if !ok {
			t.Error("waiter of a successful flight got ok=false")
		}
		got <- v
	}()
	time.Sleep(time.Millisecond)
	tv.FinishCompute("k", 42, nil)
	if v := <-got; v != 42 {
		t.Fatalf("waiter received %v, want the leader's 42", v)
	}
	if n := tv.InflightComputes(); n != 0 {
		t.Fatalf("InflightComputes = %d after resolution, want 0", n)
	}
	// The key is free again: the next BeginCompute elects a fresh leader.
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("BeginCompute after resolution must elect a new leader")
	}
	tv.FinishCompute("k", nil, nil)
}

// TestInflightFailureReleasesAllWaiters: a failing leader wakes every
// parked waiter empty-handed — each computes locally, none inherits the
// flight — and the key is immediately electable again.
func TestInflightFailureReleasesAllWaiters(t *testing.T) {
	tv := inflightTiered(t)
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("want leadership")
	}
	_, waitA := tv.BeginCompute("k")
	_, waitB := tv.BeginCompute("k")

	type outcome struct {
		v  any
		ok bool
	}
	outcomes := make(chan outcome, 2)
	for _, wait := range []func(context.Context, time.Duration) (any, bool){waitA, waitB} {
		go func() {
			v, ok := wait(context.Background(), 0)
			outcomes <- outcome{v, ok}
		}()
	}
	time.Sleep(time.Millisecond)

	tv.FinishCompute("k", nil, errors.New("leader died"))
	for i := 0; i < 2; i++ {
		if o := <-outcomes; o.v != nil || o.ok {
			t.Fatalf("waiter %d got (%v, %v) from a failed flight, want (nil, false)", i, o.v, o.ok)
		}
	}
	if n := tv.InflightComputes(); n != 0 {
		t.Fatalf("InflightComputes = %d after a failed flight, want 0", n)
	}
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("BeginCompute after a failed flight must elect a new leader")
	}
	tv.FinishCompute("k", nil, nil)
}

// TestInflightFailureWithoutWaitersAbandons: a failing leader with nobody
// parked abandons the flight; the key is immediately electable again.
func TestInflightFailureWithoutWaitersAbandons(t *testing.T) {
	tv := inflightTiered(t)
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("want leadership")
	}
	tv.FinishCompute("k", nil, errors.New("boom"))
	if n := tv.InflightComputes(); n != 0 {
		t.Fatalf("InflightComputes = %d after abandoned failure, want 0", n)
	}
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("abandoned key must elect a new leader")
	}
	tv.FinishCompute("k", nil, nil)
}

// TestInflightWaiterTimeout: a bounded waiter gives up, deregisters, and the
// leader's eventual failure — now waiterless — abandons cleanly.
func TestInflightWaiterTimeout(t *testing.T) {
	tv := inflightTiered(t)
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("want leadership")
	}
	_, wait := tv.BeginCompute("k")
	if v, ok := wait(context.Background(), time.Millisecond); ok || v != nil {
		t.Fatalf("got (%v, %v), want (nil, false) on timeout", v, ok)
	}
	if n := tv.InflightWaiters("k"); n != 0 {
		t.Fatalf("InflightWaiters = %d after timeout, want 0", n)
	}
	tv.FinishCompute("k", nil, errors.New("late failure"))
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("want fresh leadership after waiterless failure")
	}
	tv.FinishCompute("k", nil, nil)
}

// TestInflightWaiterCancel: a canceled waiter deregisters without a result.
func TestInflightWaiterCancel(t *testing.T) {
	tv := inflightTiered(t)
	if leader, _ := tv.BeginCompute("k"); !leader {
		t.Fatal("want leadership")
	}
	_, wait := tv.BeginCompute("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, ok := wait(ctx, 0); ok || v != nil {
		t.Fatalf("got (%v, %v), want (nil, false) on cancel", v, ok)
	}
	tv.FinishCompute("k", 1, nil)
	if n := tv.InflightComputes(); n != 0 {
		t.Fatalf("InflightComputes = %d, want 0", n)
	}
}
