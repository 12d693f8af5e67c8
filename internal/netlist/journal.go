package netlist

import "selectivemt/internal/liberty"

// ChangeKind classifies one edit recorded in a design's change journal.
type ChangeKind int

// Change kinds. ChangeCellReplaced and ChangeMoved are the cheap,
// incrementally re-timeable edits (connectivity is untouched); every other
// kind is structural and forces observers to rebuild their topological
// view of the design.
const (
	// ChangeCellReplaced records a ReplaceCell: same pins, new cell.
	ChangeCellReplaced ChangeKind = iota
	// ChangeMoved records a placement update (NotePlacement).
	ChangeMoved
	// ChangeConnected records a pin attached to a net.
	ChangeConnected
	// ChangeDisconnected records a pin detached from a net.
	ChangeDisconnected
	// ChangeInstanceAdded records a new instance (unconnected at birth).
	ChangeInstanceAdded
	// ChangeInstanceRemoved records an instance deletion (its pins emit
	// ChangeDisconnected entries first).
	ChangeInstanceRemoved
	// ChangeNetAdded records a new net.
	ChangeNetAdded
	// ChangeNetRemoved records a net deletion.
	ChangeNetRemoved
	// ChangePortAdded records a new primary port.
	ChangePortAdded
	// ChangeSinksMoved records sink endpoints rewired between nets by a
	// composite edit (InsertBuffer's port-load move).
	ChangeSinksMoved
	// ChangeNetAttr records a net attribute flip (IsVGND, IsMTE) that can
	// alter extraction behavior without touching connectivity.
	ChangeNetAttr
)

// Structural reports whether the change alters connectivity (as opposed to
// a cell rebinding or a placement move on fixed connectivity).
func (k ChangeKind) Structural() bool {
	return k != ChangeCellReplaced && k != ChangeMoved
}

// Change is one journal entry. Inst/Net identify the touched elements when
// applicable; OldCell is set for ChangeCellReplaced.
type Change struct {
	Kind    ChangeKind
	Inst    *Instance
	Pin     string
	Net     *Net
	OldCell *liberty.Cell
}

// journalFloor is the minimum retained history. The effective bound
// scales with design size (see journalCap): a fixed cap silently dropped
// history under design-wide edit passes on large designs, turning every
// incremental retime into a full rebuild.
const journalFloor = 1 << 14

// journalCap returns the retained-history bound: the explicit override
// when set, otherwise four entries per design element with a floor of
// journalFloor. Swap passes journal one entry per touched instance and
// structural edits a handful per net, so 4x keeps several full-design
// passes inside the window.
func (d *Design) journalCap() int {
	if d.journalCapOverride > 0 {
		return d.journalCapOverride
	}
	c := 4 * (len(d.instByName) + len(d.netByName))
	if c < journalFloor {
		c = journalFloor
	}
	return c
}

// SetJournalCap overrides the retained-history bound (entries); cap <= 0
// restores the automatic size-scaled bound. Observers holding revisions
// older than the shrunk window fail their next ChangesSince and rebuild,
// exactly as on overflow.
func (d *Design) SetJournalCap(cap int) {
	if cap < 0 {
		cap = 0
	}
	d.journalCapOverride = cap
}

// Revision returns the design's edit counter. Every mutation through the
// Design API (ReplaceCell, Connect, Disconnect, instance/net/port
// add/remove, InsertBuffer, NotePlacement, NoteBulkEdit) bumps it, so an
// observer that cached derived state at revision R can cheaply detect
// staleness by comparing against the current value.
func (d *Design) Revision() uint64 { return d.rev }

// record appends a journal entry and bumps the revision.
func (d *Design) record(ch Change) {
	d.rev++
	if len(d.journal) >= d.journalCap() {
		drop := len(d.journal) / 2
		d.journal = append(d.journal[:0], d.journal[drop:]...)
		d.journalBase += uint64(drop)
	}
	d.journal = append(d.journal, ch)
}

// ChangesSince returns the journal entries recorded after revision rev, in
// order, and ok=true when the history back to rev is still retained. When
// rev predates the retained window (the journal overflowed, or NoteBulkEdit
// invalidated history) it returns ok=false and the observer must treat the
// whole design as changed.
func (d *Design) ChangesSince(rev uint64) ([]Change, bool) {
	if rev > d.rev {
		return nil, false // observer is from the future: a different design
	}
	if rev < d.journalBase {
		return nil, false
	}
	return d.journal[rev-d.journalBase:], true
}

// NotePlacement records that an instance's Pos/Placed changed. Placement
// fields are plain struct members, so movers (the placer, CTS, ECO) must
// call this for incremental observers to see the edit; edits that skip it
// are out-of-band and only detected via NoteBulkEdit or a fingerprint
// check.
func (d *Design) NotePlacement(inst *Instance) {
	d.record(Change{Kind: ChangeMoved, Inst: inst})
}

// NoteNetChanged records an out-of-band net edit — flag flips (IsVGND,
// IsMTE) that can alter extraction behavior without touching
// connectivity. InsertSwitches and BuildMTE call it when they mark nets.
func (d *Design) NoteNetChanged(n *Net) {
	d.record(Change{Kind: ChangeNetAttr, Net: n})
}

// NoteBulkEdit invalidates the retained journal: the next ChangesSince
// from any older revision fails, forcing observers to rebuild. Bulk
// editors (global placement, direct field surgery) call this instead of
// journaling thousands of individual entries.
func (d *Design) NoteBulkEdit() {
	d.rev++
	d.journal = d.journal[:0]
	d.journalBase = d.rev
}
