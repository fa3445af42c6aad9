package store

// Load is one cluster load's handle on an open file, and the only thing the
// engine needs to know about the format: the sections it iterates, and what
// reading a span of their rows costs. It bundles the file with the residency
// window bounding how much of the mapping this load keeps resident and, for a
// compressed file, the file's shared decode cache. Which bytes a row span
// faults in and what must stay pinned while it is read differ between the
// two section spellings; Claim decides that here so no caller branches on it.
type Load struct {
	sf  *File
	res *residency   // nil without a resident budget
	dc  *DecodeCache // nil for a raw file
}

// LoadStats is a point-in-time snapshot of a load's decode-cache and
// residency-window counters (zero where the load has neither).
type LoadStats struct {
	Decode    DecodeCacheStats
	Residency ResidencyStats
}

// NewLoad returns a load handle over the file. residentBudgetBytes > 0 bounds
// the mapping's resident pages with a window shared by every machine of the
// load (they alias one mapping, and the budget is a per-process RSS bound).
// decodeCacheBytes budgets a compressed file's decode cache — 0 selects
// DefaultDecodeCacheBytes, negative is unbounded; the cache is the file's
// singleton, so the first load's budget wins — and is ignored for a raw file.
func (sf *File) NewLoad(residentBudgetBytes, decodeCacheBytes int64) (*Load, error) {
	l := &Load{sf: sf, res: sf.newResidency(residentBudgetBytes)}
	if sf.Compressed() {
		if decodeCacheBytes == 0 {
			decodeCacheBytes = DefaultDecodeCacheBytes
		}
		var err error
		if l.dc, err = sf.EnsureDecodeCache(decodeCacheBytes); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// File returns the open file under the load.
func (l *Load) File() *File { return l.sf }

// Windowed reports whether a residency window bounds the load — the signal
// that the caller's own O(N) arrays should stay off the Go heap too.
func (l *Load) Windowed() bool { return l.res != nil }

// Section returns machine mach's rows/refs/weights views. On a compressed
// file the refs are the decode cache's full-length arenas: indexed absolutely
// like a raw section's, but holding decoded data only for rows under a live
// Claim.
func (l *Load) Section(mach int) Section {
	sec := l.sf.Section(mach)
	if l.dc != nil {
		sec.OutRefs, sec.InRefs = l.dc.refs(mach, OrientOut), l.dc.refs(mach, OrientIn)
	}
	return sec
}

// Claim prepares rows [rowLo, rowHi) of (mach, orient) for reading: the file
// bytes the span will fault in enter the residency window — rows, weights and
// either the raw refs or, on a compressed section, the ~3-bytes-per-edge
// blocks the decode reads (the decoded arena lives outside the mapping) — and
// a compressed section's covering blocks are decoded and pinned. The token
// must be released once the reads finish; it is the zero (no-op) token when
// nothing was pinned. Claim order — sequential per machine via the shared
// cursor — is the prefetch order.
func (l *Load) Claim(mach, orient int, rowLo, rowHi int64) (PinToken, error) {
	o := &l.sf.secs[mach][orient]
	if r := l.res; r != nil {
		eLo, eHi := o.rows[rowLo], o.rows[rowHi]
		touch(r, o.rows, rowLo, rowHi+1)
		if l.dc == nil {
			touch(r, o.refs, eLo, eHi)
		} else if blo, bhi := o.blockRange(rowLo, rowHi); blo < bhi {
			touch(r, o.comp, o.offs[blo], o.offs[bhi])
		}
		touch(r, o.weights, eLo, eHi)
	}
	if l.dc == nil {
		return PinToken{}, nil
	}
	return l.dc.Pin(mach, orient, rowLo, rowHi)
}

// Stats snapshots the load's counters.
func (l *Load) Stats() LoadStats {
	var s LoadStats
	if l.dc != nil {
		s.Decode = l.dc.Stats()
	}
	s.Residency = l.res.stats()
	return s
}
