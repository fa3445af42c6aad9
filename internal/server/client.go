package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
)

// Client is a synchronous connection to a pgxd server. Safe for concurrent
// use: requests serialize over the single connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its response.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("client: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("client: recv: %w", err)
	}
	return resp, nil
}

// do unwraps application-level errors.
func (c *Client) do(req Request) (Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return resp, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("client: server: %s", resp.Error)
	}
	return resp, nil
}

// Generate creates and loads a synthetic graph on the server.
func (c *Client) Generate(req Request) (GraphInfo, error) {
	req.Op = "generate"
	resp, err := c.do(req)
	if err != nil {
		return GraphInfo{}, err
	}
	if len(resp.Graphs) != 1 {
		return GraphInfo{}, fmt.Errorf("client: malformed generate response")
	}
	return resp.Graphs[0], nil
}

// Load reads a graph file on the server host and loads it.
func (c *Client) Load(name, path string, machines int) (GraphInfo, error) {
	resp, err := c.do(Request{Op: "load", Graph: name, Path: path, Machines: machines})
	if err != nil {
		return GraphInfo{}, err
	}
	if len(resp.Graphs) != 1 {
		return GraphInfo{}, fmt.Errorf("client: malformed load response")
	}
	return resp.Graphs[0], nil
}

// Run executes one analysis.
func (c *Client) Run(req Request) (*RunResult, error) {
	req.Op = "run"
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("client: malformed run response")
	}
	return resp.Result, nil
}

// Cancel kills queued and running analyses labeled tag (op=run's Tag
// field), optionally restricted to one tenant. Returns how many runs
// matched. Issue it from a second connection: the canceled run's own
// connection is blocked waiting for its response.
func (c *Client) Cancel(tag, tenant string) (int, error) {
	resp, err := c.do(Request{Op: "cancel", Tag: tag, Tenant: tenant})
	if err != nil {
		return 0, err
	}
	if resp.Result == nil {
		return 0, fmt.Errorf("client: malformed cancel response")
	}
	var n int
	fmt.Sscanf(resp.Result.Extra, "%d", &n)
	return n, nil
}

// List returns the loaded graph instances.
func (c *Client) List() ([]GraphInfo, error) {
	resp, err := c.do(Request{Op: "list"})
	if err != nil {
		return nil, err
	}
	return resp.Graphs, nil
}

// Drop unloads a graph and frees its engine.
func (c *Client) Drop(name string) error {
	_, err := c.do(Request{Op: "drop", Graph: name})
	return err
}

// Stats returns server-level accounting.
func (c *Client) Stats() (*ServerStats, error) {
	resp, err := c.do(Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("client: malformed stats response")
	}
	return resp.Stats, nil
}
