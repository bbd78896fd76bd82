// Fixture for httpclose: unclosed response bodies and escaping
// responses (assumed closed elsewhere).
package fixture

import (
	"io"
	"net/http"
)

func leak(c *http.Client, req *http.Request) (int, error) {
	resp, err := c.Do(req) // want "never closed"
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func closed(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func escapesVar(c *http.Client, req *http.Request) (*http.Response, error) {
	resp, err := c.Do(req)
	return resp, err
}

func handedOff(c *http.Client, req *http.Request, sink func(*http.Response)) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	sink(resp)
	return nil
}

func inClosure(c *http.Client, req *http.Request) func() error {
	return func() error {
		resp, err := c.Do(req) // want "never closed"
		if err != nil {
			return err
		}
		_ = resp.Status
		return nil
	}
}

func suppressedLeak(c *http.Client, req *http.Request) int {
	//lint:ignore httpclose fixture: the transport is discarded with the client
	resp, _ := c.Do(req)
	return resp.StatusCode
}
