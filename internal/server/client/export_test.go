package client

import "net/http"

// SetTransport makes c send its requests through rt, so a test can count
// the connections it dials.
func SetTransport(c *Client, rt http.RoundTripper) { c.hc.Transport = rt }
