package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// RemoteError is a typed rejection from the daemon, carrying the
// protocol's error code.
type RemoteError struct {
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// Client speaks the JSON-lines control protocol. One request is in flight
// at a time (the protocol is strictly request/reply per line); methods are
// serialized by an internal lock, so a Client may be shared.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	enc  *json.Encoder
}

// Dial connects to a daemon's control address.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), enc: json.NewEncoder(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) do(req Request) (*Response, error) {
	if err := c.enc.Encode(&req); err != nil {
		return nil, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("daemon connection: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("malformed daemon reply: %v", err)
	}
	if !resp.OK {
		code := resp.Code
		if code == "" {
			code = CodeInternal
		}
		return nil, &RemoteError{Code: code, Msg: resp.Error}
	}
	return &resp, nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	_, err := c.do(Request{Op: OpPing})
	return err
}

// job round-trips a request whose reply carries one job's status.
func (c *Client) job(req Request) (*JobStatus, error) {
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.Job == nil {
		return nil, fmt.Errorf("daemon reply missing job status")
	}
	return resp.Job, nil
}

// Submit submits one job and returns its initial status.
func (c *Client) Submit(spec JobSpec) (*JobStatus, error) {
	return c.job(Request{Op: OpSubmit, Job: &spec})
}

// Status fetches one job's state.
func (c *Client) Status(id string) (*JobStatus, error) {
	return c.job(Request{Op: OpStatus, ID: id})
}

// Cancel requests a job's cancellation and returns its status.
func (c *Client) Cancel(id string) (*JobStatus, error) {
	return c.job(Request{Op: OpCancel, ID: id})
}

// List fetches every job's status.
func (c *Client) List() ([]JobStatus, error) {
	resp, err := c.do(Request{Op: OpList})
	if err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Wait blocks until the job reaches a terminal state or the timeout
// expires (timeout <= 0 waits forever). It is one request: the daemon
// replies when the job settles.
func (c *Client) Wait(id string, timeout time.Duration) (*JobStatus, error) {
	req := Request{Op: OpWait, ID: id}
	if timeout > 0 {
		// Round up: a sub-millisecond timeout must not read as "forever".
		req.TimeoutMS = int((timeout + time.Millisecond - 1) / time.Millisecond)
	}
	st, err := c.job(req)
	if err == nil && !st.Terminal() {
		err = fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
	}
	return st, err
}
