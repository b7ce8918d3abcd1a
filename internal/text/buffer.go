// Package text implements the rune buffer underlying every help subwindow.
//
// A Buffer is an editable rune sequence with an undo/redo log. Offsets are
// rune counts from the start of the buffer, matching the paper's model in
// which help passes applications "the file and character offset of the mouse
// position". Storage is pluggable behind the backing interface: small bodies
// live in the original in-memory gap buffer, while large files use a piece
// table over lazily paged-in file segments (see LoadPaged) so a gigabyte log
// costs memory proportional to what is being looked at, not to its size.
// The package also resolves the location syntax accepted by the Open
// command — :27 line numbers, and the "general locations" the paper
// mentions (:/pattern/ searches and :#offset character addresses), which we
// implement as one of the paper's future-work extensions.
package text

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Buffer is an editable sequence of runes.
//
// The zero value is an empty buffer ready to use. Buffer is not safe for
// concurrent use; help serializes all access through its event loop, as the
// original did.
type Buffer struct {
	back backing

	// mem is back when back is the resident gap buffer, else nil. It
	// exists so the per-rune hot path (Len, At — called once per cell
	// by every reflow) dispatches on a concrete type the compiler can
	// inline instead of paying two interface calls per rune.
	mem *memBacking

	// gen counts primitive edits (including undo/redo replay). Frames
	// compare it against the generation they laid out to decide whether
	// a relayout is needed.
	gen uint64

	undo   []change
	redo   []change
	seq    int  // current transaction sequence number
	noUndo bool // true while replaying undo/redo

	// Clean-state tracking for Modified: cleanLen is the undo-log length
	// at the last SetClean (or creation); cleanGone is set once that
	// state becomes unreachable — the redo history holding it was
	// truncated by a fresh edit, or SetDirty forced the buffer dirty.
	// Undoing back to exactly cleanLen entries restores Modified()==false.
	cleanLen  int
	cleanGone bool
	modified  bool

	// onSplice, when set, observes every primitive mutation — including
	// undo/redo replay and SetString — after it has been applied. The
	// session's change capture hangs off this hook: primInsert/primDelete
	// are the single choke point all edits funnel through, so one
	// callback captures every way a buffer can change.
	onSplice func(off, ndel int, ins string)

	// onMem, when set, observes the buffer's resident size moving. It is
	// installed into the backing, which fires it with signed rune deltas:
	// edits for the in-memory backing, and additionally page-in/eviction
	// for the paged backing. It is a slot separate from SetOnSplice so
	// memory accounting composes with the journal.
	onMem func(delta int)
}

// change records one primitive edit for the undo log.
type change struct {
	seq    int
	insert bool   // true: text was inserted at off; false: deleted
	off    int    // rune offset of the edit
	text   []rune // the inserted or deleted text
}

// NewBuffer returns a buffer initialized with the given text.
func NewBuffer(s string) *Buffer {
	m := newMemBacking()
	b := &Buffer{back: m, mem: m}
	b.primInsert(0, []rune(s), s)
	b.undo = nil // initial content is not undoable
	b.modified = false
	return b
}

// bk returns the storage engine, installing the in-memory one on first
// use so the zero-value Buffer stays ready to use.
func (b *Buffer) bk() backing {
	if b.back == nil {
		m := newMemBacking()
		b.back = m
		b.mem = m
	}
	return b.back
}

// Len returns the number of runes in the buffer.
func (b *Buffer) Len() int {
	if m := b.mem; m != nil {
		return m.length()
	}
	return b.bk().length()
}

// ByteLen returns the length of the buffer's UTF-8 encoding: the number
// of bytes String or AppendUTF8 over the whole buffer produce.
func (b *Buffer) ByteLen() int64 { return b.bk().bytesTotal() }

// MemRunes returns the number of runes resident in process memory. For an
// in-memory buffer this equals Len; for a paged buffer it is the cached
// pages plus edits, which is what the session memory budget charges.
func (b *Buffer) MemRunes() int { return b.bk().memRunes() }

// Paged reports whether the buffer is backed by the paged piece table
// rather than the fully resident gap buffer.
func (b *Buffer) Paged() bool {
	_, ok := b.back.(*pagedBacking)
	return ok
}

// Modified reports whether the buffer differs from its state at the last
// call to SetClean. The help Put!/Get! commands use this to decide whether
// to show "Put!" in a window's tag; undoing every edit back to the clean
// state clears it again.
func (b *Buffer) Modified() bool { return b.modified }

// SetClean marks the buffer unmodified, as after a Put! or Get!. The
// current undo position becomes the clean state: Undo/Redo landing back on
// it restore Modified() == false.
func (b *Buffer) SetClean() {
	b.cleanLen = len(b.undo)
	b.cleanGone = false
	b.modified = false
}

// SetDirty marks the buffer modified without editing it, used by the file
// interface's "dirty" control message. No undo position counts as clean
// afterwards, until the next SetClean.
func (b *Buffer) SetDirty() {
	b.cleanGone = true
	b.modified = true
}

// recomputeModified derives the modified flag from the undo position: the
// buffer is clean exactly when the undo log is back at the length recorded
// by SetClean and that state is still reachable.
func (b *Buffer) recomputeModified() {
	b.modified = b.cleanGone || len(b.undo) != b.cleanLen
}

// Gen returns the buffer's edit generation: a counter bumped by every
// primitive edit, including undo/redo replay. Equal generations imply
// identical contents since the earlier observation, which is what frame
// damage checks rely on.
func (b *Buffer) Gen() uint64 { return b.gen }

// primInsert inserts rs without recording undo. s is the string rs was
// decoded from, or "" when there is none (undo/redo replay); the splice
// observer gets it as is when that is exactly string(rs).
func (b *Buffer) primInsert(off int, rs []rune, s string) {
	if off < 0 || off > b.Len() {
		panic(fmt.Sprintf("text: insert offset %d out of range [0,%d]", off, b.Len()))
	}
	b.bk().insert(off, rs)
	b.gen++
	if b.onSplice != nil {
		if s == "" || !utf8.ValidString(s) {
			// An invalid byte decoded to U+FFFD, so the observer must
			// see the runes' encoding, not the source bytes.
			s = string(rs)
		}
		b.onSplice(off, 0, s)
	}
}

// primDelete deletes without recording undo. The removed runes are
// materialized and returned only when want is true; undo replay of an
// insert and wholesale reloads pass false, which lets a paged backing
// drop piece references without faulting their pages in.
func (b *Buffer) primDelete(off, n int, want bool) []rune {
	if off < 0 || n < 0 || off+n > b.Len() {
		panic(fmt.Sprintf("text: delete [%d,%d) out of range [0,%d]", off, off+n, b.Len()))
	}
	removed := b.bk().remove(off, n, want)
	b.gen++
	if b.onSplice != nil {
		b.onSplice(off, n, "")
	}
	return removed
}

// Insert inserts s at rune offset off.
func (b *Buffer) Insert(off int, s string) { b.insert(off, []rune(s), s) }

// insert inserts rs at off as an undoable edit; s is the string rs was
// decoded from, as primInsert takes it.
func (b *Buffer) insert(off int, rs []rune, s string) {
	if len(rs) == 0 {
		return
	}
	b.primInsert(off, rs, s)
	if !b.noUndo {
		if b.cleanLen > len(b.undo) {
			// The clean state lived in the redo history about to be
			// truncated; it is no longer reachable by Undo/Redo.
			b.cleanGone = true
		}
		b.undo = append(b.undo, change{seq: b.seq, insert: true, off: off, text: rs})
		b.redo = nil
	}
	b.recomputeModified()
}

// Delete removes n runes starting at off and returns them as a string.
func (b *Buffer) Delete(off, n int) string { return string(b.delete(off, n)) }

// delete removes n runes at off as an undoable edit and returns them.
func (b *Buffer) delete(off, n int) []rune {
	if n == 0 {
		return nil
	}
	removed := b.primDelete(off, n, true)
	if !b.noUndo {
		if b.cleanLen > len(b.undo) {
			b.cleanGone = true
		}
		b.undo = append(b.undo, change{seq: b.seq, insert: false, off: off, text: removed})
		b.redo = nil
	}
	b.recomputeModified()
	return removed
}

// Replace substitutes the range [off, off+n) with s as a single undo step.
func (b *Buffer) Replace(off, n int, s string) {
	b.Commit()
	b.delete(off, n)
	b.Insert(off, s)
	b.Commit()
}

// Commit marks a transaction boundary: edits made after Commit undo
// separately from edits made before it.
func (b *Buffer) Commit() { b.seq++ }

// Undo reverses the most recent transaction. It reports whether anything
// was undone.
func (b *Buffer) Undo() bool {
	if len(b.undo) == 0 {
		return false
	}
	b.noUndo = true
	defer func() { b.noUndo = false }()
	seq := b.undo[len(b.undo)-1].seq
	for len(b.undo) > 0 && b.undo[len(b.undo)-1].seq == seq {
		c := b.undo[len(b.undo)-1]
		b.undo = b.undo[:len(b.undo)-1]
		if c.insert {
			b.primDelete(c.off, len(c.text), false)
		} else {
			b.primInsert(c.off, c.text, "")
		}
		b.redo = append(b.redo, c)
	}
	b.recomputeModified()
	return true
}

// Redo reapplies the most recently undone transaction. It reports whether
// anything was redone.
func (b *Buffer) Redo() bool {
	if len(b.redo) == 0 {
		return false
	}
	b.noUndo = true
	defer func() { b.noUndo = false }()
	seq := b.redo[len(b.redo)-1].seq
	for len(b.redo) > 0 && b.redo[len(b.redo)-1].seq == seq {
		c := b.redo[len(b.redo)-1]
		b.redo = b.redo[:len(b.redo)-1]
		if c.insert {
			b.primInsert(c.off, c.text, "")
		} else {
			b.primDelete(c.off, len(c.text), false)
		}
		b.undo = append(b.undo, c)
	}
	b.recomputeModified()
	return true
}

// CanUndo reports whether Undo would do anything.
func (b *Buffer) CanUndo() bool { return len(b.undo) > 0 }

// CanRedo reports whether Redo would do anything.
func (b *Buffer) CanRedo() bool { return len(b.redo) > 0 }

// At returns the rune at offset off. It panics if off is out of range.
func (b *Buffer) At(off int) rune {
	// Happy path only, kept small enough to inline into render loops;
	// everything else — paged backing, out-of-range panic — is atSlow.
	if m := b.mem; m != nil && off >= 0 {
		if off < m.gapStart {
			return m.runes[off]
		}
		if i := off + (m.gapEnd - m.gapStart); i < len(m.runes) {
			return m.runes[i]
		}
	}
	return b.atSlow(off)
}

func (b *Buffer) atSlow(off int) rune {
	if off < 0 || off >= b.Len() {
		panic(fmt.Sprintf("text: At(%d) out of range [0,%d)", off, b.Len()))
	}
	return b.bk().at(off)
}

// AppendUTF8 appends the UTF-8 encoding of the runes in [off, off+n),
// clamped to the buffer bounds, to dst and returns the extended slice.
// It encodes straight from the backing's storage — the gap buffer's two
// segments, or a paged buffer's pieces page by page — with no
// intermediate rune copy, and it is the one encoder every read of the
// buffer goes through: Slice, String, the file interface and session
// checkpoints. Runes that are not valid code points encode as U+FFFD,
// byte for byte what string([]rune) produces.
func (b *Buffer) AppendUTF8(dst []byte, off, n int) []byte {
	off, n = b.clamp(off, n)
	if n <= 0 {
		return dst
	}
	return b.bk().appendUTF8(dst, off, n)
}

// clamp limits the range [off, off+n) to the buffer bounds; the n it
// returns is <= 0 when nothing of the range is left.
func (b *Buffer) clamp(off, n int) (int, int) {
	if off < 0 {
		n += off
		off = 0
	}
	if l := b.Len(); off+n > l {
		n = l - off
	}
	return off, n
}

// Slice returns the runes in [off, off+n) as a string, clamped to the
// buffer bounds.
func (b *Buffer) Slice(off, n int) string {
	off, n = b.clamp(off, n)
	if n <= 0 {
		return ""
	}
	buf := b.bk().appendUTF8(make([]byte, 0, n), off, n)
	// buf is never written again, so the string may share its memory,
	// as strings.Builder's does.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// String returns the whole buffer contents.
func (b *Buffer) String() string { return b.Slice(0, b.Len()) }

// SetString replaces the entire contents as a single undoable transaction,
// as the Get! command does.
func (b *Buffer) SetString(s string) {
	b.Replace(0, b.Len(), s)
}

// SetOnSplice installs (or, with nil, removes) the splice observer: a
// callback invoked after every primitive mutation with the rune offset,
// the number of runes deleted there, and the text inserted. Exactly one
// of ndel/len(ins) is non-zero per call; a delete passes "", so nothing
// is encoded for text that is only being removed.
//
// ins always equals string(<the runes inserted>). Insert, SetString,
// Load and ApplySplice pass their own argument through, without a copy,
// when it is valid UTF-8; when it is not, they pass the encoding of the
// decoded runes, in which each invalid byte is the U+FFFD the buffer
// holds. Undo/redo replay and wholesale backing swaps (LoadPaged,
// AdoptClone) encode the runes they insert. An observer may keep ins.
// The callback must not mutate the buffer.
func (b *Buffer) SetOnSplice(fn func(off, ndel int, ins string)) {
	b.onSplice = fn
}

// SetOnMem installs (or, with nil, removes) the resident-size observer:
// a callback invoked with signed rune deltas whenever the buffer's
// resident size moves — on every edit, and for paged buffers also on
// page-in and eviction. It is a slot separate from SetOnSplice so memory
// accounting composes with the journal. The callback must not mutate
// the buffer.
func (b *Buffer) SetOnMem(fn func(delta int)) {
	b.onMem = fn
	b.bk().setOnMem(fn)
}

// Load replaces the entire contents without recording undo and marks the
// buffer clean, as when a window adopts a file's contents wholesale. The
// undo and redo histories are discarded; the splice observer, if any,
// stays installed and sees the replacement as a delete plus an insert.
func (b *Buffer) Load(s string) {
	b.noUndo = true
	if n := b.Len(); n > 0 {
		b.primDelete(0, n, false)
	}
	if rs := []rune(s); len(rs) > 0 {
		b.primInsert(0, rs, s)
	}
	b.noUndo = false
	b.undo = nil
	b.redo = nil
	b.SetClean()
}

// swapBacking replaces the storage engine wholesale, with the same
// observable semantics as Load: the splice observer sees a delete of the
// old contents and an insert of the new, the generation bumps for each,
// residency accounting transfers from the old backing to the new, and the
// undo/redo histories are discarded with the buffer left clean.
//
// The insert half materializes the new contents only when a splice
// observer is installed (a journal needs the text); without one, adopting
// a paged backing stays lazy.
func (b *Buffer) swapBacking(nb backing) {
	old := b.bk()
	oldLen := old.length()
	if oldLen > 0 {
		b.gen++
		if b.onSplice != nil {
			b.onSplice(0, oldLen, "")
		}
	}
	old.setOnMem(nil)
	if b.onMem != nil {
		if n := old.memRunes(); n != 0 {
			b.onMem(-n)
		}
	}
	b.back = nb
	b.mem, _ = nb.(*memBacking)
	if b.onMem != nil {
		if n := nb.memRunes(); n != 0 {
			b.onMem(n)
		}
	}
	nb.setOnMem(b.onMem)
	if nb.length() > 0 {
		b.gen++
		if b.onSplice != nil {
			b.onSplice(0, 0, b.String())
		}
	}
	b.undo = nil
	b.redo = nil
	b.SetClean()
}

// LoadPaged replaces the entire contents with a paged view of src, the
// piece-table analogue of Load: the file's bytes page in on demand as the
// buffer is read, with at most maxResident bytes of decoded text held
// resident at once (minimum one page). Building the view streams src once
// to index page boundaries and newlines — a byte scan, with no rune
// materialization — so line queries never touch unresident pages.
//
// On error the buffer is left unchanged. Edits, undo, generations, and
// splice observation behave identically to an in-memory buffer.
func (b *Buffer) LoadPaged(src Source, maxResident int64) error {
	nb, err := newPagedBacking(src, maxResident, defaultPageBytes)
	if err != nil {
		return err
	}
	b.swapBacking(nb)
	return nil
}

// AdoptClone replaces the contents with a structural clone of src's
// storage: pieces and indexes are copied, but file-backed page data is
// shared lazily rather than materialized, so cloning a paged gigabyte
// window costs the piece table, not the text. Undo history is not
// inherited and the buffer starts clean, exactly like Load.
func (b *Buffer) AdoptClone(src *Buffer) {
	b.swapBacking(src.back.clone())
}

// ApplySplice applies a journaled primitive mutation: delete ndel runes
// at off, then insert ins there. It bypasses the undo log and does not
// touch the modified flag — recovery replays clean-state transitions as
// separate records — and returns an error instead of panicking on an
// out-of-range splice, because a journal's word is not to be trusted.
func (b *Buffer) ApplySplice(off, ndel int, ins string) error {
	if off < 0 || ndel < 0 || off+ndel > b.Len() {
		return fmt.Errorf("text: splice [%d,%d) out of range [0,%d]", off, off+ndel, b.Len())
	}
	if ndel > 0 {
		b.primDelete(off, ndel, false)
	}
	if rs := []rune(ins); len(rs) > 0 {
		b.primInsert(off, rs, ins)
	}
	return nil
}

// LineStart returns the offset of the first rune of 1-based line number ln.
// Lines past the end resolve to the buffer length. Line ln starts just
// after the (ln-1)th newline, so this is a direct index lookup.
func (b *Buffer) LineStart(ln int) int {
	if ln <= 1 {
		return 0
	}
	if ln-2 < b.bk().nNewlines() {
		return b.bk().newlineOff(ln-2) + 1
	}
	return b.Len()
}

// LineEnd returns the offset just past the last rune of line ln, excluding
// the newline itself: the first newline at or after the line's start.
func (b *Buffer) LineEnd(ln int) int {
	off := b.LineStart(ln)
	if i := b.bk().newlineIdx(off); i < b.bk().nNewlines() {
		return b.bk().newlineOff(i)
	}
	return b.Len()
}

// LineAt returns the 1-based line number containing offset off: one more
// than the number of newlines strictly before it.
func (b *Buffer) LineAt(off int) int {
	if off > b.Len() {
		off = b.Len()
	}
	return b.bk().newlineIdx(off) + 1
}

// NLines returns the number of lines in the buffer. An empty buffer has
// one (empty) line; a trailing newline does not start a new line.
func (b *Buffer) NLines() int {
	n := b.Len()
	if n == 0 {
		return 1
	}
	k := b.bk().nNewlines()
	if k > 0 && b.bk().newlineOff(k-1) == n-1 {
		return k // trailing newline: no extra line after it
	}
	return k + 1
}

// ErrNoMatch is returned by Address when a pattern search fails.
var ErrNoMatch = errors.New("text: no match")

// Address resolves the location syntax accepted after a file name:
//
//	27        line 27 (window positioned so the line is visible and selected)
//	#123      character (rune) offset 123
//	/pat/     first literal occurrence of pat, searching forward from 0
//
// It returns the rune range [q0, q1) to select.
func (b *Buffer) Address(addr string) (q0, q1 int, err error) {
	switch {
	case addr == "":
		return 0, 0, nil
	case addr[0] == '#':
		var off int
		if _, err := fmt.Sscanf(addr[1:], "%d", &off); err != nil {
			return 0, 0, fmt.Errorf("text: bad address %q", addr)
		}
		if off < 0 {
			off = 0
		}
		if off > b.Len() {
			off = b.Len()
		}
		return off, off, nil
	case addr[0] == '/':
		pat := strings.TrimPrefix(addr, "/")
		pat = strings.TrimSuffix(pat, "/")
		if pat == "" {
			return 0, 0, fmt.Errorf("text: empty pattern")
		}
		// Search rune-wise: a byte-level index could land inside a
		// multi-byte rune and produce offsets past the buffer.
		needle := []rune(pat)
		n := b.Len()
	search:
		for i := 0; i+len(needle) <= n; i++ {
			for j, r := range needle {
				if b.At(i+j) != r {
					continue search
				}
			}
			return i, i + len(needle), nil
		}
		return 0, 0, ErrNoMatch
	default:
		var ln int
		if _, err := fmt.Sscanf(addr, "%d", &ln); err != nil {
			return 0, 0, fmt.Errorf("text: bad address %q", addr)
		}
		if ln < 1 {
			ln = 1
		}
		return b.LineStart(ln), b.LineEnd(ln), nil
	}
}
