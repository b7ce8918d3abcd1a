package text

import (
	"slices"
	"sort"
	"unicode/utf8"
)

// backing is the storage engine beneath a Buffer. The Buffer owns edit
// generations, undo, clean-state tracking, and the splice observer; the
// backing owns the runes themselves and the newline index. Two
// implementations exist: memBacking, the original gap buffer holding the
// whole text resident, and pagedBacking, a piece table over lazily
// paged-in file segments for bodies too large to materialize.
//
// Offsets are rune counts, as everywhere in this package. The newline
// index methods mirror what the line queries need: nNewlines is the
// total count, newlineOff(i) is the offset of the i-th (0-based)
// newline, and newlineIdx(off) is the number of newlines at offsets
// strictly below off — exactly sort.SearchInts over the full index,
// without requiring the index to be materialized as one slice.
type backing interface {
	length() int
	at(off int) rune
	// appendUTF8 appends the UTF-8 encoding of the runes in [off, off+n)
	// to dst and returns it, encoding straight from the stored runes.
	// The range must be within bounds.
	appendUTF8(dst []byte, off, n int) []byte
	insert(off int, rs []rune)
	// remove deletes [off, off+n). The removed runes are returned only
	// when want is true; undo replay and wholesale reloads pass false so
	// a paged backing never materializes text nobody will look at.
	remove(off, n int, want bool) []rune

	nNewlines() int
	newlineOff(i int) int
	newlineIdx(off int) int

	// memRunes reports the resident rune count: everything held in
	// process memory right now. For memBacking this equals length; for
	// pagedBacking it is the cached pages plus the append store, which
	// moves on page-in and eviction, not only on edits.
	memRunes() int
	// setOnMem installs the residency observer, called with the signed
	// rune delta whenever memRunes changes — on edits for memBacking,
	// and additionally on fault/evict for pagedBacking.
	setOnMem(fn func(delta int))

	// bytesTotal is the UTF-8 encoded size of the full contents.
	bytesTotal() int64
	// seekByte locates the rune containing byte offset off, returning
	// its rune offset and the byte offset at which that rune starts.
	// Offsets at or past the end return (length, bytesTotal).
	seekByte(off int64) (runeOff int, runeStart int64)

	// clone returns an independent copy sharing only immutable state.
	clone() backing
}

// runesByteLen returns the UTF-8 encoded length of rs, matching what
// string(rs) would produce (invalid runes encode as U+FFFD).
func runesByteLen(rs []rune) int64 {
	var n int64
	for _, r := range rs {
		sz := utf8.RuneLen(r)
		if sz < 0 {
			sz = utf8.RuneLen(utf8.RuneError)
		}
		n += int64(sz)
	}
	return n
}

// appendRunesUTF8 appends the UTF-8 encoding of rs to dst: the bytes
// string(rs) would hold, invalid runes included (they encode as U+FFFD).
// It is the one rune→byte encoder every read of buffer text goes through.
func appendRunesUTF8(dst []byte, rs []rune) []byte {
	dst = slices.Grow(dst, len(rs))
	for _, r := range rs {
		if uint32(r) < utf8.RuneSelf {
			dst = append(dst, byte(r))
			continue
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// memBacking is the original storage: a gap buffer of runes plus a flat
// sorted newline index. Everything is resident.
type memBacking struct {
	// Gap buffer: runes[:gapStart] and runes[gapEnd:] hold the text.
	runes    []rune
	gapStart int
	gapEnd   int

	// newlines is the line index: the offset of every '\n' in the text,
	// ascending. insert/remove maintain it incrementally, so the line
	// queries are binary searches or direct lookups instead of scans.
	newlines []int

	onMem func(delta int)
}

func newMemBacking() *memBacking { return &memBacking{} }

func (m *memBacking) length() int { return len(m.runes) - (m.gapEnd - m.gapStart) }

func (m *memBacking) at(off int) rune {
	if off < m.gapStart {
		return m.runes[off]
	}
	return m.runes[off+(m.gapEnd-m.gapStart)]
}

// spans returns the stored runes of [off, off+n) as at most two slices,
// the parts before and after the gap; b is empty when the range does not
// straddle the gap.
func (m *memBacking) spans(off, n int) (a, b []rune) {
	gap := m.gapEnd - m.gapStart
	switch end := off + n; {
	case end <= m.gapStart:
		return m.runes[off:end], nil
	case off >= m.gapStart:
		return m.runes[off+gap : end+gap], nil
	default:
		return m.runes[off:m.gapStart], m.runes[m.gapEnd : end+gap]
	}
}

func (m *memBacking) appendRange(dst []rune, off, n int) []rune {
	a, b := m.spans(off, n)
	return append(append(dst, a...), b...)
}

func (m *memBacking) appendUTF8(dst []byte, off, n int) []byte {
	a, b := m.spans(off, n)
	return appendRunesUTF8(appendRunesUTF8(dst, a), b)
}

// moveGap positions the gap at rune offset off.
func (m *memBacking) moveGap(off int) {
	if off < m.gapStart {
		n := m.gapStart - off
		copy(m.runes[m.gapEnd-n:m.gapEnd], m.runes[off:m.gapStart])
		m.gapStart = off
		m.gapEnd -= n
	} else if off > m.gapStart {
		n := off - m.gapStart
		copy(m.runes[m.gapStart:], m.runes[m.gapEnd:m.gapEnd+n])
		m.gapStart += n
		m.gapEnd += n
	}
}

// grow ensures the gap has room for at least n more runes.
func (m *memBacking) grow(n int) {
	gap := m.gapEnd - m.gapStart
	if gap >= n {
		return
	}
	newCap := len(m.runes)*2 + n
	if newCap < 64 {
		newCap = 64 + n
	}
	nr := make([]rune, newCap)
	copy(nr, m.runes[:m.gapStart])
	tail := len(m.runes) - m.gapEnd
	copy(nr[newCap-tail:], m.runes[m.gapEnd:])
	m.gapEnd = newCap - tail
	m.runes = nr
}

func (m *memBacking) insert(off int, rs []rune) {
	if len(rs) == 0 {
		return
	}
	m.grow(len(rs))
	m.moveGap(off)
	copy(m.runes[m.gapStart:], rs)
	m.gapStart += len(rs)
	m.indexInsert(off, rs)
	if m.onMem != nil {
		m.onMem(len(rs))
	}
}

func (m *memBacking) remove(off, n int, want bool) []rune {
	if n == 0 {
		return nil
	}
	var removed []rune
	if want {
		removed = m.appendRange(make([]rune, 0, n), off, n)
	}
	// Move the gap only to the near edge of [off, off+n): the runes
	// inside are about to be dropped, so shifting them would be wasted
	// copying. Then off <= gapStart <= off+n, and the gap widens over
	// the range on both sides.
	if end := off + n; m.gapStart > end {
		m.moveGap(end)
	} else if m.gapStart < off {
		m.moveGap(off)
	}
	m.gapEnd += off + n - m.gapStart
	m.gapStart = off
	m.indexDelete(off, n)
	if m.onMem != nil {
		m.onMem(-n)
	}
	return removed
}

// indexInsert splices rs's newlines into the line index and shifts every
// later newline by len(rs). The shift is a bulk pass over the tail of the
// index, so an append to the end of the buffer costs only the scan of rs.
func (m *memBacking) indexInsert(off int, rs []rune) {
	count := 0
	for _, r := range rs {
		if r == '\n' {
			count++
		}
	}
	i := sort.SearchInts(m.newlines, off)
	if count > 0 {
		old := len(m.newlines)
		for len(m.newlines) < old+count {
			// Amortized growth; no temporary slice of the added offsets.
			m.newlines = append(m.newlines, 0)
		}
		copy(m.newlines[i+count:], m.newlines[i:old])
		idx := i
		for j, r := range rs {
			if r == '\n' {
				m.newlines[idx] = off + j
				idx++
			}
		}
		i += count
	}
	for k := i; k < len(m.newlines); k++ {
		m.newlines[k] += len(rs)
	}
}

// indexDelete drops newlines inside the deleted range [off, off+n) and
// shifts every later newline down by n.
func (m *memBacking) indexDelete(off, n int) {
	i := sort.SearchInts(m.newlines, off)
	j := sort.SearchInts(m.newlines, off+n)
	if i != j {
		copy(m.newlines[i:], m.newlines[j:])
		m.newlines = m.newlines[:len(m.newlines)-(j-i)]
	}
	for k := i; k < len(m.newlines); k++ {
		m.newlines[k] -= n
	}
}

func (m *memBacking) nNewlines() int         { return len(m.newlines) }
func (m *memBacking) newlineOff(i int) int   { return m.newlines[i] }
func (m *memBacking) newlineIdx(off int) int { return sort.SearchInts(m.newlines, off) }
func (m *memBacking) memRunes() int          { return m.length() }
func (m *memBacking) setOnMem(fn func(int))  { m.onMem = fn }

func (m *memBacking) bytesTotal() int64 {
	var total int64
	total += runesByteLen(m.runes[:m.gapStart])
	total += runesByteLen(m.runes[m.gapEnd:])
	return total
}

func (m *memBacking) seekByte(off int64) (int, int64) {
	var bo int64
	n := m.length()
	for ro := 0; ro < n; ro++ {
		sz := utf8.RuneLen(m.at(ro))
		if sz < 0 {
			sz = utf8.RuneLen(utf8.RuneError)
		}
		if bo+int64(sz) > off {
			return ro, bo
		}
		bo += int64(sz)
	}
	return n, bo
}

func (m *memBacking) clone() backing {
	n := m.length()
	out := make([]rune, n)
	copy(out, m.runes[:m.gapStart])
	copy(out[m.gapStart:], m.runes[m.gapEnd:])
	return &memBacking{
		runes:    out,
		gapStart: n,
		gapEnd:   n,
		newlines: append([]int(nil), m.newlines...),
	}
}
