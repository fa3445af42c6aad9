package store

// Load is one cluster load's handle on an open file, and the only thing the
// engine needs to know about the format beyond File.Section's views: what
// reading a span of their rows costs. It bundles the file with the residency
// window bounding how much of the mapping this load keeps resident and, for a
// compressed file, the file's shared decode cache, whose blocks the load's
// Cursors pin one at a time.
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
// DefaultDecodeCacheBytes, negative holds the whole file, and a load never asks
// for less than the file's largest block, without which nothing it reads would
// ever be found decoded; the cache is the file's singleton, so the first
// load's budget wins — and is ignored for a raw file.
func (sf *File) NewLoad(residentBudgetBytes, decodeCacheBytes int64) (*Load, error) {
	l := &Load{sf: sf, res: sf.newResidency(residentBudgetBytes)}
	if sf.Compressed() {
		if decodeCacheBytes == 0 {
			decodeCacheBytes = DefaultDecodeCacheBytes
		} else if decodeCacheBytes > 0 {
			decodeCacheBytes = max(decodeCacheBytes, sf.maxBlock)
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

// Claim announces that rows [rowLo, rowHi) of (mach, orient) are about to be
// read: the file bytes that will fault in — rows, weights and raw refs — enter
// the residency window. A compressed section's blocks enter it as a Cursor
// decodes them, and its decoded refs live outside the mapping. Claim order —
// sequential per machine via the shared cursor — is the prefetch order.
func (l *Load) Claim(mach, orient int, rowLo, rowHi int64) {
	if l.res == nil {
		return
	}
	o := &l.sf.secs[mach][orient]
	eLo, eHi := o.rows[rowLo], o.rows[rowHi]
	touch(l.res, o.rows, rowLo, rowHi+1)
	touch(l.res, o.refs, eLo, eHi)
	touch(l.res, o.weights, eLo, eHi)
}

// ClaimMembers claims the rows of a sorted member list run by run, so the
// window takes in what the members' rows occupy and not the span from the
// first to the last: neighbours less than a page apart in both the row array
// and the edge arrays — whose pages would share or abut — make one Claim.
func (l *Load) ClaimMembers(mach, orient int, members []uint32) {
	if l.res == nil {
		return
	}
	rows, page := l.sf.secs[mach][orient].rows, l.sf.pageSize/8
	for i := 0; i < len(members); {
		j := i + 1
		for j < len(members) && int64(members[j]-members[j-1]) < page && rows[members[j]]-rows[members[j-1]+1] < page {
			j++
		}
		l.Claim(mach, orient, int64(members[i]), int64(members[j-1])+1)
		i = j
	}
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
