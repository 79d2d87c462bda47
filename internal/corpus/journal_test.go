package corpus

import (
	"encoding/json"
	"slices"
	"testing"
)

// replayRaw scans data as a journal, returning every record it replays.
func replayRaw(data []byte) ([]string, int64, error) {
	var recs []string
	n, err := replay("journal", data, func(rec *json.RawMessage) error {
		recs = append(recs, string(*rec))
		return nil
	})
	return recs, n, err
}

// FuzzJournalReplay: on arbitrary bytes the journal scan never panics, and
// either fails or keeps a prefix that is empty or ends on a newline — one
// that re-scans to the same records and the same length, so truncating a
// journal to it loses nothing the scan accepted. Its seeds are committed
// under testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := replayRaw(data)
		if err != nil {
			return
		}
		if n < 0 || n > int64(len(data)) || (n > 0 && data[n-1] != '\n') {
			t.Fatalf("input %q: valid length %d is neither 0 nor a line end", data, n)
		}
		again, m, err := replayRaw(data[:n])
		if err != nil || m != n || !slices.Equal(again, recs) {
			t.Fatalf("input %q: prefix %d re-scans to %d records, length %d, err %v; want %d records",
				data, n, len(again), m, err, len(recs))
		}
	})
}
