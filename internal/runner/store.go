package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/store"
)

// Both durable memo tiers — the per-run checkpoint journal and the shared
// result store — are internal/store stores: in-process map → journal →
// shared store → run. Entries are keyed by the canonical fingerprint of
// the memo key and hold the JSON of a sim.Result inside the store's
// checksummed envelope, so a restarted process — or a different process
// sharing the store — reloads exactly the configurations it already
// computed, byte-identically, and any config change falls through to a
// fresh computation. sim.Result round-trips losslessly through JSON
// (exported value fields only; Go prints float64s in shortest-exact form).
// Tier failures are never result failures: a corrupt entry is quarantined
// and recomputed, an exhausted retry budget degrades to a Report.Notes
// record (durability lost, correctness kept).

// fingerprintKey renders a cacheKey to its canonical content address: the
// hex SHA-256 of the key's %#v rendering. cacheKey holds only value data
// (no pointers), so the rendering — and therefore the fingerprint — is
// stable across processes and machines.
func fingerprintKey(key cacheKey) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", key)))
	return hex.EncodeToString(sum[:])
}

// Fingerprint returns cfg's canonical memo fingerprint — the key under
// which the checkpoint journal and the shared result store address its
// result. Configs that differ only in non-identity fields (Obs, the
// loop-shape knobs; see MemoKeyExclusions) share a fingerprint.
func Fingerprint(cfg sim.Config) string {
	return fingerprintKey(keyOf(cfg))
}

// storeLoad fetches and decodes key's result from one durable tier, named
// by the source a hit there reports. (nil, nil) means no usable entry
// (absent, or corrupt-and-quarantined — recompute); the error, when
// non-nil, is a note for the Report: the tier misbehaved (corrupt entry,
// exhausted retries) but the run proceeds by recomputing.
func storeLoad(st *store.Store, src runSource, fp string) (*sim.Result, error) {
	data, err := st.Get(fp)
	switch {
	case errors.Is(err, store.ErrNotFound):
		return nil, nil
	case err != nil:
		// Corrupt (already quarantined by the store) or transient budget
		// exhausted: either way the entry is not trusted and the config is
		// re-executed. Surface the event so operators see the disk misbehaving.
		return nil, fmt.Errorf("runner: %s entry %s.. unusable, recomputing: %w", src, fp[:12], err)
	}
	var res sim.Result
	if uerr := json.Unmarshal(data, &res); uerr != nil {
		// The envelope verified but the payload does not decode — a writer
		// bug, not a torn write. Quarantine and recompute all the same. A
		// failed quarantine leaves the bad entry live for the next reader,
		// so it rides along in the surfaced note.
		if qerr := st.Driver().Quarantine(fp); qerr != nil {
			return nil, fmt.Errorf("runner: %s entry %s.. verified but undecodable (quarantine also failed: %v), recomputing: %w", src, fp[:12], qerr, uerr)
		}
		return nil, fmt.Errorf("runner: %s entry %s.. verified but undecodable, quarantined and recomputing: %w", src, fp[:12], uerr)
	}
	return &res, nil
}

// storeSave publishes res to one durable tier. Failure is a note, not an
// error: the result is already computed and delivered, only its durability
// beyond this process is lost.
func storeSave(st *store.Store, src runSource, fp string, res *sim.Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("runner: %s encode: %w", src, err)
	}
	if err := st.Put(fp, data); err != nil {
		return fmt.Errorf("runner: %s write %s.. failed (result kept, durability lost): %w", src, fp[:12], err)
	}
	return nil
}
