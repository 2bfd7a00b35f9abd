package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// client is the one closed-loop caller: a single HTTP/1.1 keep-alive
// connection per child, the next request written only after the last
// body byte of the previous answer has been read.
type client struct {
	http  *http.Client
	dials int
	body  bytes.Buffer // reused: a closure_wide answer is over a megabyte
}

func newClient() *client {
	c := &client{}
	dialer := &net.Dialer{}
	c.http = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err == nil {
					c.dials++
				}
				return conn, err
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Hour,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one request and reads the whole answer. The latency is the
// client-observed one: from handing the request to the connection until
// the last body byte is in. The returned body is valid until the next
// call.
func (c *client) post(base, path string, body []byte) (lat time.Duration, status int, answer []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.body.Reset()
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	_, err = c.body.ReadFrom(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("reading %s answer: %w", path, err)
	}
	return lat, resp.StatusCode, c.body.Bytes(), nil
}

// get fetches a scrape endpoint (traced runs only).
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return data, nil
}
