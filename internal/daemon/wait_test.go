package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"
)

// holdJob registers a running job that settles only when the returned
// function is called: Submit without the workload.
func holdJob(t *testing.T, d *Daemon, id string) (settle func()) {
	t.Helper()
	spec := JobSpec{ID: id, Tenant: "held"}
	spec.Normalize()
	d.mu.Lock()
	tn, err := d.admit(&spec, 0, 0)
	if err != nil {
		d.mu.Unlock()
		t.Fatalf("admit %s: %v", id, err)
	}
	j := &job{spec: spec, tenant: tn, state: "running", done: make(chan struct{})}
	d.jobs[id] = j
	d.order = append(d.order, id)
	d.jobsWG.Add(1)
	d.mu.Unlock()
	return func() { d.finishJob(j, nil, nil) }
}

// lineCounter counts the request lines a client writes.
type lineCounter struct {
	net.Conn
	lines int
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return c.Conn.Write(p)
}

// TestClientWaitIsOneBlockingRequest holds a job for 100 ms per round: a
// polling Wait would ask several times and learn of the end up to a poll
// interval late; the wait verb asks once and is answered from j.done.
func TestClientWaitIsOneBlockingRequest(t *testing.T) {
	d, addr := startDaemon(t, Budgets{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire := &lineCounter{Conn: c.conn}
	c.enc = json.NewEncoder(wire)

	const rounds = 5
	var lags []time.Duration
	for round := 0; round < rounds; round++ {
		id := fmt.Sprintf("held-%d", round)
		settle := holdJob(t, d, id)
		settled := make(chan time.Time, 1)
		go func() {
			time.Sleep(100 * time.Millisecond)
			settled <- time.Now()
			settle()
		}()
		before := wire.lines
		st, err := c.Wait(id, time.Minute)
		returned := time.Now()
		if err != nil || st.State != "done" {
			t.Fatalf("round %d: Wait = %+v, %v", round, st, err)
		}
		if n := wire.lines - before; n != 1 {
			t.Fatalf("round %d: Wait made %d requests, want 1", round, n)
		}
		lags = append(lags, returned.Sub(<-settled))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if med := lags[rounds/2]; med > 5*time.Millisecond {
		t.Fatalf("Wait returned a median %v after the job settled (all: %v), want under 5ms", med, lags)
	}
}

// TestWaitVerbExits covers the ways a wait ends without its job settling
// on its own: the timeout, the peer hanging up, and a drain.
func TestWaitVerbExits(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		d, addr := startDaemon(t, Budgets{})
		defer holdJob(t, d, "held")()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// A sub-millisecond timeout must round up, not read as "forever".
		st, err := c.Wait("held", 200*time.Microsecond)
		if err == nil || st == nil || st.State != "running" {
			t.Fatalf("Wait past its timeout = %+v, %v; want the running status and an error", st, err)
		}
		var remote *RemoteError
		if _, err := c.Wait("nobody", time.Second); !errors.As(err, &remote) || remote.Code != CodeUnknownJob {
			t.Fatalf("Wait on an unknown job: %v, want %s", err, CodeUnknownJob)
		}
	})

	t.Run("connection close", func(t *testing.T) {
		d, addr := startDaemon(t, Budgets{})
		defer holdJob(t, d, "held")()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.enc.Encode(&Request{Op: OpWait, ID: "held"}); err != nil {
			t.Fatal(err)
		}
		c.Close()
		// The handler is blocked in the wait; only the hang-up can end it.
		deadline := time.Now().Add(10 * time.Second)
		for {
			d.mu.Lock()
			n := len(d.conns)
			d.mu.Unlock()
			if n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d connection handlers still waiting after the peer closed", n)
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("drain", func(t *testing.T) {
		clk := newFakeClock()
		d := New(Config{Clock: clk})
		// A ring long enough to outlive any test timeout if never canceled.
		st, err := d.Submit(JobSpec{Tenant: "slow", Ranks: 2, K: 64, Reps: MaxReps})
		if err != nil {
			t.Fatal(err)
		}
		waited := make(chan *Response, 1)
		go func() {
			waited <- d.handle([]byte(`{"op":"wait","id":"`+st.ID+`"}`), nil)
		}()
		go d.Drain()
		deadline := time.Now().Add(5 * time.Second)
		for clk.pending() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("Drain never armed its deadline timer")
			}
			time.Sleep(time.Millisecond)
		}
		clk.fire()
		select {
		case resp := <-waited:
			if !resp.OK || resp.Job.State != "canceled" {
				t.Fatalf("wait released by drain: %+v, want the canceled job", resp)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("wait still blocked 10s after the drain deadline fired")
		}
	})
}

// TestControlStatusCancelList sends the status, list and cancel verbs over
// the wire, as an outside controller would: no matchd program issues them,
// but the control protocol accepts them from any client.
func TestControlStatusCancelList(t *testing.T) {
	d, addr := startDaemon(t, Budgets{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Status of a submitted job, once it has run.
	sub, err := c.Submit(JobSpec{ID: "ring", Tenant: "ctl", Engine: "host", Ranks: 2, K: 2, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(sub.ID, time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := c.job(Request{Op: OpStatus, ID: sub.ID})
	if err != nil || st.ID != sub.ID || st.Tenant != "ctl" || st.State != "done" {
		t.Fatalf("status = %+v, %v; want ring done for tenant ctl", st, err)
	}

	// Cancel of a running job replies with its status at the time, and the
	// job settles as canceled.
	settle := holdJob(t, d, "held")
	st, err = c.job(Request{Op: OpCancel, ID: "held"})
	if err != nil || st.ID != "held" || st.State != "running" {
		t.Fatalf("cancel = %+v, %v; want held running", st, err)
	}
	settle()
	if st, err := c.Wait("held", time.Minute); err != nil || st.State != "canceled" {
		t.Fatalf("canceled job settled as %+v, %v", st, err)
	}

	// List names every job, in submission order.
	resp, err := c.do(Request{Op: OpList})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range resp.Jobs {
		got = append(got, j.ID+"="+j.State)
	}
	if want := []string{"ring=done", "held=canceled"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("list = %v, want %v", got, want)
	}

	// An unknown id gets an error reply, and the connection still serves.
	for _, op := range []string{OpStatus, OpCancel} {
		_, err := c.do(Request{Op: op, ID: "nope"})
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeUnknownJob {
			t.Fatalf("%s of an unknown id: %v, want code %s", op, err, CodeUnknownJob)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after an error reply: %v", err)
	}
}
