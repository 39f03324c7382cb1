package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestPublishBatchAtomicUnderConcurrentReads races two publishers of
// eight-vaccine batches against full-registry readers. Versions are
// dense (distinct IDs) and each batch is contiguous, so a reader that
// sees only part of a batch shows up as a Version that is not a
// multiple of the batch size, or a body shorter than its Version.
func TestPublishBatchAtomicUnderConcurrentReads(t *testing.T) {
	const publishers, batches, size, readers = 2, 1000, 8, 2
	r := NewRegistry(0)
	var pubs, reads sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for b := 0; b < batches; b++ {
				if _, _, err := r.Publish(testVaccines(fmt.Sprintf("atom%d-%d", p, b), size)...); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var torn sync.Map
	for g := 0; g < readers; g++ {
		reads.Add(1)
		go func(g int) {
			defer reads.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := r.Latest(); v%size != 0 {
					torn.Store(fmt.Sprintf("reader %d: Latest %d", g, v), true)
				}
				d := r.Delta(0)
				if d.Version%size != 0 || len(d.Vaccines) != int(d.Version) {
					torn.Store(fmt.Sprintf("reader %d: Delta(0) Version %d with %d vaccines", g, d.Version, len(d.Vaccines)), true)
				}
			}
		}(g)
	}
	pubs.Wait()
	close(stop)
	reads.Wait()
	torn.Range(func(k, _ any) bool {
		t.Error("partial batch visible: ", k)
		return true
	})
	if got, want := r.Latest(), uint64(publishers*batches*size); got != want {
		t.Fatalf("Latest %d, want %d", got, want)
	}
}

// TestPublishStoppedBeforeFsyncInvisible stops a persistent publish
// after its batch is stored and appended but before the fsync: every
// read surface — Latest, Delta, checkin, the 304 path and a parked
// long poll — must still show the previous batch only, including the
// old content of a vaccine the stopped batch replaces.
func TestPublishStoppedBeforeFsyncInvisible(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	defer r.Close()
	if _, _, err := r.Publish(testVaccines("durable", 3)...); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(r).Handler())
	defer ts.Close()

	replaced := staticVaccine("durable/mutex/0", "durable-REPLACED")
	// unchanged reports whether a full delta still carries the visible
	// batch exactly, replaced vaccine included.
	unchanged := func(d *DeltaResponse) bool {
		if d.Version != 3 || len(d.Vaccines) != 3 {
			return false
		}
		for _, v := range d.Vaccines {
			if v.Identifier == replaced.Identifier {
				return false
			}
		}
		return true
	}
	staged, release := make(chan struct{}), make(chan struct{})
	publishStagedHook = func() {
		close(staged)
		<-release
	}
	defer func() { publishStagedHook = nil }()
	published := make(chan error, 1)
	go func() {
		_, _, err := r.Publish(append(testVaccines("pending", 3), replaced)...)
		published <- err
	}()
	<-staged

	if v := r.Latest(); v != 3 {
		t.Errorf("Latest %d while the batch awaits fsync, want 3", v)
	}
	if d := r.Delta(0); !unchanged(d) {
		t.Errorf("Delta(0) while the batch awaits fsync: %+v", d)
	}
	if d := r.Delta(3); len(d.Vaccines) != 0 {
		t.Errorf("Delta(3) carries %d staged vaccines", len(d.Vaccines))
	}
	if resp := r.Checkin(CheckinRequest{Host: "h"}, time.Now()); resp.Version != 3 {
		t.Errorf("checkin reports version %d, want 3", resp.Version)
	}
	for _, q := range []string{"since=3", "since=3&wait=20ms"} {
		resp, err := http.Get(ts.URL + PathPacks + "?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("GET %s: status %d, want 304", q, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + PathPacks + "?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var d DeltaResponse
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !unchanged(&d) {
		t.Errorf("since=0 body while the batch awaits fsync: %+v", d)
	}

	close(release)
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if v := r.Latest(); v != 7 {
		t.Errorf("Latest %d after the fsync, want 7", v)
	}
	if got := r.Delta(3); len(got.Vaccines) != 4 || got.Version != 7 {
		t.Errorf("Delta(3) after the fsync: Version %d with %d vaccines, want 7/4", got.Version, len(got.Vaccines))
	}
	if got := r.Delta(0); len(got.Vaccines) != 6 || got.Vaccines[5].Identifier != replaced.Identifier {
		t.Errorf("Delta(0) after the fsync: %+v", got)
	}
}
