package mem

import (
	"encoding/binary"

	"specmpk/internal/mpk"
)

// A Memo remembers 1<<memoBits pages. One entry thrashes between a
// program's stack and data pages; sixteen, indexed by a hash of the page
// number, hold the stack, the data pages in use and a keyed page.
const memoBits = 4

// Memo remembers recent translations through one address space, so a run of
// accesses to the pages in use reads neither the page table nor the frame
// map. It is direct-mapped by virtual page number: each entry holds a page's
// PTE, its frame and the page-table generation (AddressSpace.Gen) both were
// read at, and an entry from an older generation is read again, so Map,
// Unmap, Mprotect and PkeyMprotect never leave one stale. The memo caches no
// verdict: every access checks the RWX bits, and Load and Store the PKRU,
// as AddressSpace.Access does. It never remembers an absent frame, because
// a later write (a fault handler's WriteVirt64, a checkpoint patch) may
// create it; frames are never freed, so a remembered one never dangles.
//
// The zero Memo is empty. It binds to the address space its first call
// names and starts over when a call names another.
type Memo struct {
	as *AddressSpace
	e  [1 << memoBits]memoEntry
}

type memoEntry struct {
	vpn   uint64
	gen   uint64
	pte   PTE             // Valid only while the entry holds a page
	frame *[PageSize]byte // nil while the frame is absent
}

// entry returns vaddr's entry: the remembered one when it holds vaddr's page
// at the page table's current generation with its frame present, or else
// one filled from the page table and frame map (fill).
func (m *Memo) entry(as *AddressSpace, vaddr uint64) *memoEntry {
	vpn := vaddr >> PageBits
	if e := m.slot(vpn); e.vpn == vpn && e.gen == as.gen && e.frame != nil && m.as == as {
		return e
	}
	return m.fill(as, vaddr)
}

// slot is the entry page vpn maps to (Fibonacci hashing).
func (m *Memo) slot(vpn uint64) *memoEntry {
	return &m.e[(vpn*0x9e3779b97f4a7c15)>>(64-memoBits)]
}

// fill reads vaddr's page from the page table into its entry, with its
// frame when present; nil when the page is unmapped or invalid.
func (m *Memo) fill(as *AddressSpace, vaddr uint64) *memoEntry {
	if m.as != as {
		*m = Memo{as: as}
	}
	vpn := vaddr >> PageBits
	pte, ok := as.pages[vpn]
	if !ok || !pte.Valid {
		return nil
	}
	e := m.slot(vpn)
	*e = memoEntry{vpn: vpn, gen: as.gen, pte: pte, frame: as.Phys.frames[pte.PPN]}
	return e
}

// Translate is AddressSpace.Translate through the memo, with ok false where
// Translate returns a fault.
func (m *Memo) Translate(as *AddressSpace, vaddr uint64, a AccessKind) (paddr uint64, pte PTE, ok bool) {
	e := m.entry(as, vaddr)
	if e == nil {
		return 0, PTE{}, false
	}
	if !e.pte.AllowsProt(a) {
		return 0, e.pte, false
	}
	return e.pte.PPN<<PageBits | vaddr&(PageSize-1), e.pte, true
}

// fault is the fault AddressSpace.Access raises for an access the memo
// refused: the page table agrees with every current entry, so Access
// refuses it too, and names the fault.
func fault(as *AddressSpace, vaddr uint64, a AccessKind, pkru mpk.PKRU) *Fault {
	_, _, err := as.Access(vaddr, a, pkru)
	return err.(*Fault)
}

// Load is a data load of size bytes (8 or 1) at vaddr under pkru: the fault
// AddressSpace.Access raises, or the value PhysMem.Read64 or Read8 returns
// at the translated address. A word that crosses a page boundary is read
// byte by byte, as Read64 reads it.
func (m *Memo) Load(as *AddressSpace, vaddr uint64, size int, pkru mpk.PKRU) (uint64, *Fault) {
	e := m.entry(as, vaddr)
	if e == nil || e.pte.Prot&ProtRead == 0 || !pkru.ReadAllowed(int(e.pte.PKey)) {
		return 0, fault(as, vaddr, Read, pkru)
	}
	off := vaddr & (PageSize - 1)
	switch {
	case size == 8 && off > PageSize-8:
		return as.Phys.Read64(e.pte.PPN<<PageBits | off), nil
	case e.frame == nil:
		return 0, nil
	case size == 1:
		return uint64(e.frame[off]), nil
	}
	return binary.LittleEndian.Uint64(e.frame[off:]), nil
}

// Store is a data store of the low size bytes (8 or 1) of v at vaddr under
// pkru: the fault AddressSpace.Access raises, or the write PhysMem.Write64 or
// Write8 makes at the translated address, materialising the frame as they
// do.
func (m *Memo) Store(as *AddressSpace, vaddr uint64, size int, v uint64, pkru mpk.PKRU) *Fault {
	e := m.entry(as, vaddr)
	if e == nil || e.pte.Prot&ProtWrite == 0 || !pkru.WriteAllowed(int(e.pte.PKey)) {
		return fault(as, vaddr, Write, pkru)
	}
	off := vaddr & (PageSize - 1)
	if size == 8 && off > PageSize-8 {
		as.Phys.Write64(e.pte.PPN<<PageBits|off, v)
		return nil
	}
	if e.frame == nil {
		e.frame = as.Phys.frameFor(e.pte.PPN<<PageBits, true)
	}
	if size == 1 {
		e.frame[off] = byte(v)
	} else {
		binary.LittleEndian.PutUint64(e.frame[off:], v)
	}
	return nil
}
