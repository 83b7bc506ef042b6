package httpsrv_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"predator/internal/httpsrv"
	"predator/internal/resilience"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestPanickingEndpointsQuarantine: a panicking buffered endpoint and a
// panicking raw endpoint each answer 500 until the panic budget is spent,
// then 503, and both are listed as quarantined while a sibling keeps
// serving.
func TestPanickingEndpointsQuarantine(t *testing.T) {
	s := httpsrv.New("test")
	s.Handle("/buffered", func(*http.Request, *bytes.Buffer) (string, error) { panic("render exploded") })
	s.HandleRaw("/raw/", "/raw", func(http.ResponseWriter, *http.Request) { panic("handler exploded") })
	s.Handle("/ok", func(_ *http.Request, buf *bytes.Buffer) (string, error) {
		buf.WriteString("fine")
		return "text/plain", nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if q := s.Quarantined(); q != nil {
		t.Fatalf("Quarantined() = %v before any panic, want nil", q)
	}

	for _, c := range []struct{ path, name string }{{"/buffered", "/buffered"}, {"/raw/x", "/raw"}} {
		for i := 0; i < resilience.DefaultPanicLimit; i++ {
			code, body := get(t, srv, c.path)
			if code != http.StatusInternalServerError || body != c.name+": handler panicked\n" {
				t.Fatalf("%s panic %d: %d %q, want 500 handler panicked", c.path, i, code, body)
			}
		}
		code, body := get(t, srv, c.path)
		if code != http.StatusServiceUnavailable || body != c.name+": quarantined after repeated panics\n" {
			t.Fatalf("%s past the budget: %d %q, want 503 quarantined", c.path, code, body)
		}
	}
	if got, want := s.Quarantined(), []string{"/buffered", "/raw"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Quarantined() = %v, want %v", got, want)
	}
	if code, body := get(t, srv, "/ok"); code != http.StatusOK || body != "fine" {
		t.Errorf("sibling endpoint: %d %q, want 200 fine", code, body)
	}
}

// TestWrappedErrorKeepsCode: an *Error wrapped by fmt.Errorf still sets the
// response code; any other error answers 500.
func TestWrappedErrorKeepsCode(t *testing.T) {
	wrapped := fmt.Errorf("looking up run: %w", httpsrv.NewError(http.StatusNotFound, "run r9 not found"))
	if got := httpsrv.Status(wrapped); got != http.StatusNotFound {
		t.Errorf("Status(wrapped) = %d, want 404", got)
	}
	if got := httpsrv.Status(io.EOF); got != http.StatusInternalServerError {
		t.Errorf("Status(plain) = %d, want 500", got)
	}

	s := httpsrv.New("test")
	s.Handle("/missing", func(*http.Request, *bytes.Buffer) (string, error) { return "", wrapped })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if code, body := get(t, srv, "/missing"); code != http.StatusNotFound || body != wrapped.Error()+"\n" {
		t.Errorf("/missing = %d %q, want 404 with the wrapped message", code, body)
	}
}

func TestIntParam(t *testing.T) {
	req := func(query string) *http.Request { return httptest.NewRequest(http.MethodGet, "/x"+query, nil) }
	if n, err := httpsrv.IntParam(req(""), "n", 10); n != 10 || err != nil {
		t.Errorf("absent: %d, %v; want the default 10", n, err)
	}
	if n, err := httpsrv.IntParam(req("?n=-3"), "n", 10); n != -3 || err != nil {
		t.Errorf("?n=-3: %d, %v", n, err)
	}
	_, err := httpsrv.IntParam(req("?n=x"), "n", 10)
	if httpsrv.Status(err) != http.StatusBadRequest || err.Error() != "invalid n: x" {
		t.Errorf("?n=x: %v (status %d), want 400 invalid n: x", err, httpsrv.Status(err))
	}
}

func TestJSONAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	ct, err := httpsrv.JSON(&buf, map[string]int{"a": 1})
	if err != nil || ct != "application/json; charset=utf-8" || buf.String() != "{\n  \"a\": 1\n}\n" {
		t.Errorf("JSON = %q, %q, %v", buf.String(), ct, err)
	}
	buf.Reset()
	ct, err = httpsrv.Metrics(nil)(nil, &buf)
	if err != nil || !strings.HasPrefix(ct, "text/plain; version=0.0.4") || buf.Len() != 0 {
		t.Errorf("Metrics(nil) = %q, %q, %v; want an empty Prometheus body", buf.String(), ct, err)
	}
}

// TestStartShutdown: Shutdown is a no-op before Start and after the first
// call, a started server serves until shut down, and listen errors carry
// the server's prefix.
func TestStartShutdown(t *testing.T) {
	s := httpsrv.New("test")
	s.Handle("/ok", func(*http.Request, *bytes.Buffer) (string, error) { return "text/plain", nil })
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Start: %v", err)
	}
	addr, err := s.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/ok")
	if err != nil {
		t.Fatalf("not serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ok = %d", resp.StatusCode)
	}
	_, err = httpsrv.New("test").Start(context.Background(), addr)
	if err == nil || !strings.HasPrefix(err.Error(), "test: listen "+addr) {
		t.Errorf("second listener on %s: %v, want a test: listen error", addr, err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown #%d: %v", i+1, err)
		}
	}
	if _, err := http.Get("http://" + addr + "/ok"); err == nil {
		t.Error("still serving after Shutdown")
	}
}
