// Contract test for the ingest error mapping (see ingestStatus): the
// session-cap sentinel maps to 413 only when it arrives bare — the benign
// "session cut, everything persisted" signal the stream layer returns by
// value. Wrapped or joined forms mean a flush actually failed and data was
// lost, which must surface as a 500 even though errors.Is would still match
// the sentinel.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"press/internal/stream"
)

func TestIngestStatusContract(t *testing.T) {
	errDisk := errors.New("shard 2: disk full")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"bare cap sentinel (benign cut, data persisted)",
			stream.ErrSessionTooLarge, http.StatusRequestEntityTooLarge},
		{"cap breach whose flush failed (data lost)",
			errors.Join(stream.ErrSessionTooLarge, errDisk), http.StatusInternalServerError},
		{"wrapped cap sentinel is not the benign signal",
			fmt.Errorf("session 7: %w", stream.ErrSessionTooLarge), http.StatusInternalServerError},
		{"manager closed", stream.ErrManagerClosed, http.StatusServiceUnavailable},
		{"wrapped manager closed",
			fmt.Errorf("push: %w", stream.ErrManagerClosed), http.StatusServiceUnavailable},
		{"context canceled", context.Canceled, http.StatusServiceUnavailable},
		{"wrapped context canceled",
			fmt.Errorf("push: %w", context.Canceled), http.StatusServiceUnavailable},
		{"bad observation", fmt.Errorf("%w: edge 9 outside the network", stream.ErrBadObservation), http.StatusBadRequest},
		{"anything else", errDisk, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := ingestStatus(tc.err); got != tc.want {
			t.Errorf("%s: ingestStatus = %d, want %d", tc.name, got, tc.want)
		}
	}
}
