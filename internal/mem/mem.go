// Package mem provides the memory substrate for the SpecMPK simulators:
// sparse physical memory, page tables whose entries carry a 4-bit protection
// key (pKey), per-process address spaces, and the kernel-call models
// (mmap / mprotect / pkey_alloc / pkey_mprotect) the paper's software
// schemes rely on.
package mem

import (
	"encoding/binary"
	"fmt"

	"specmpk/internal/mpk"
)

// PageBits is log2 of the page size.
const PageBits = 12

// PageSize is the virtual/physical page size in bytes.
const PageSize = 1 << PageBits

// AccessKind distinguishes the three access types checked against a PTE.
type AccessKind uint8

const (
	// Read is a data load.
	Read AccessKind = iota
	// Write is a data store.
	Write
	// Exec is an instruction fetch.
	Exec
)

func (a AccessKind) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Exec:
		return "exec"
	}
	return "access?"
}

// FaultKind classifies translation failures.
type FaultKind uint8

const (
	// FaultPage means no valid mapping exists for the address.
	FaultPage FaultKind = iota
	// FaultProt means the PTE RWX permissions forbid the access.
	FaultProt
	// FaultPkey means the PKRU forbids the access through the page's pKey.
	// This is the fault MPK-based protection schemes (and Kard) trap on.
	FaultPkey
)

func (k FaultKind) String() string {
	switch k {
	case FaultPage:
		return "page-fault"
	case FaultProt:
		return "protection-fault"
	case FaultPkey:
		return "pkey-fault"
	}
	return "fault?"
}

// Fault is the typed error produced by failed translations.
type Fault struct {
	Kind   FaultKind
	Addr   uint64
	Access AccessKind
	PKey   int // valid for FaultPkey
}

func (f *Fault) Error() string {
	if f.Kind == FaultPkey {
		return fmt.Sprintf("mem: %s on %s of 0x%x (pkey %d)", f.Kind, f.Access, f.Addr, f.PKey)
	}
	return fmt.Sprintf("mem: %s on %s of 0x%x", f.Kind, f.Access, f.Addr)
}

// FaultAction is a fault handler's verdict: how the functional machine
// (funcsim) or the cycle-level core (pipeline) continues after a fault.
type FaultAction int

const (
	// FaultStop halts the faulting thread and surfaces the fault.
	FaultStop FaultAction = iota
	// FaultRetry re-executes the faulting instruction (the handler fixed
	// permissions, like a kernel would).
	FaultRetry
	// FaultSkip advances past the faulting instruction.
	FaultSkip
)

// Prot is a page's RWX permission set in its PTE.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// ProtRW is the common data-page permission.
const ProtRW = ProtRead | ProtWrite

// ProtRX is the common code-page permission.
const ProtRX = ProtRead | ProtExec

// PTE is one page-table entry. PKey occupies the 4 bits the MPK extension
// reserves in hardware page tables.
type PTE struct {
	PPN   uint64
	Prot  Prot
	PKey  uint8
	Valid bool
}

// AllowsProt reports whether the RWX bits permit the access.
func (p PTE) AllowsProt(a AccessKind) bool {
	switch a {
	case Read:
		return p.Prot&ProtRead != 0
	case Write:
		return p.Prot&ProtWrite != 0
	case Exec:
		return p.Prot&ProtExec != 0
	}
	return false
}

// PhysMem is sparse physical memory. Reads of unallocated frames return
// zeroes without allocating, which keeps wrong-path (transient) accesses in
// the out-of-order pipeline cheap and side-effect free at this layer.
type PhysMem struct {
	frames map[uint64]*[PageSize]byte
}

// NewPhysMem returns empty physical memory.
func NewPhysMem() *PhysMem {
	return &PhysMem{frames: make(map[uint64]*[PageSize]byte)}
}

func (m *PhysMem) frameFor(paddr uint64, alloc bool) *[PageSize]byte {
	ppn := paddr >> PageBits
	f := m.frames[ppn]
	if f == nil && alloc {
		f = new([PageSize]byte)
		m.frames[ppn] = f
	}
	return f
}

// FrameCount reports how many physical frames have been materialised.
func (m *PhysMem) FrameCount() int { return len(m.frames) }

// Read8 returns the byte at paddr.
func (m *PhysMem) Read8(paddr uint64) byte {
	f := m.frameFor(paddr, false)
	if f == nil {
		return 0
	}
	return f[paddr&(PageSize-1)]
}

// Write8 stores one byte at paddr.
func (m *PhysMem) Write8(paddr uint64, v byte) {
	f := m.frameFor(paddr, true)
	f[paddr&(PageSize-1)] = v
}

// Read64 returns the little-endian 8-byte word at paddr. The access may not
// cross a page boundary unless addressed byte-wise; generated workloads keep
// word accesses 8-byte aligned so this never splits.
func (m *PhysMem) Read64(paddr uint64) uint64 {
	off := paddr & (PageSize - 1)
	if off <= PageSize-8 {
		f := m.frameFor(paddr, false)
		if f == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(f[off : off+8])
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(m.Read8(paddr+uint64(i))) << (8 * i)
	}
	return v
}

// Write64 stores the little-endian 8-byte word at paddr.
func (m *PhysMem) Write64(paddr uint64, v uint64) {
	off := paddr & (PageSize - 1)
	if off <= PageSize-8 {
		f := m.frameFor(paddr, true)
		binary.LittleEndian.PutUint64(f[off:off+8], v)
		return
	}
	for i := 0; i < 8; i++ {
		m.Write8(paddr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadBytes copies n bytes starting at paddr into a fresh slice.
func (m *PhysMem) ReadBytes(paddr uint64, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(out, paddr)
	return out
}

// ReadInto fills dst from paddr onward with one frame lookup and one copy per
// page touched: ReadBytes into a caller's buffer. Absent frames read as zeros
// and stay absent, exactly as a Read8 loop would leave them.
func (m *PhysMem) ReadInto(dst []byte, paddr uint64) {
	for len(dst) > 0 {
		off := paddr & (PageSize - 1)
		var n int
		if f := m.frameFor(paddr, false); f != nil {
			n = copy(dst, f[off:])
		} else {
			n = min(len(dst), PageSize-int(off))
			clear(dst[:n])
		}
		dst = dst[n:]
		paddr += uint64(n)
	}
}

// WriteBytes stores b starting at paddr, one frame lookup and one copy per
// page touched. Like a Write8 loop, it materializes every frame it touches.
func (m *PhysMem) WriteBytes(paddr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.frameFor(paddr, true)[paddr&(PageSize-1):], b)
		b = b[n:]
		paddr += uint64(n)
	}
}

// AddressSpace is one process's virtual memory: a page table over a PhysMem
// plus the pKey allocator. It is the software-visible "kernel" interface the
// instrumented workloads program against.
type AddressSpace struct {
	Phys *PhysMem

	pages    map[uint64]PTE // vpn -> pte
	gen      uint64         // page-table generation; see Gen
	nextPPN  uint64
	pkeyUsed [mpk.NumKeys]bool
}

// NewAddressSpace returns an empty address space over fresh physical memory.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{
		Phys:    NewPhysMem(),
		pages:   make(map[uint64]PTE),
		nextPPN: 1, // keep PPN 0 unused so zero PTEs are obviously invalid
	}
	as.pkeyUsed[0] = true // key 0 is the default key, always allocated
	return as
}

// PageCount reports the number of mapped virtual pages.
func (as *AddressSpace) PageCount() int { return len(as.pages) }

// Gen returns the page table's generation. Every Map, Unmap, Mprotect and
// PkeyMprotect changes it, so an entry read at one generation is still the
// page table's while Gen returns that generation (Memo relies on this).
func (as *AddressSpace) Gen() uint64 { return as.gen }

// Map establishes length bytes of fresh zeroed mappings starting at the
// page-aligned address vaddr with the given permissions and pKey 0.
// Mapping over an existing page replaces it (fresh frame).
func (as *AddressSpace) Map(vaddr, length uint64, prot Prot) {
	if vaddr%PageSize != 0 {
		panic(fmt.Sprintf("mem: Map of unaligned address 0x%x", vaddr))
	}
	as.gen++
	for off := uint64(0); off < length; off += PageSize {
		vpn := (vaddr + off) >> PageBits
		as.pages[vpn] = PTE{PPN: as.nextPPN, Prot: prot, PKey: 0, Valid: true}
		as.nextPPN++
	}
}

// Unmap removes the mappings covering [vaddr, vaddr+length).
func (as *AddressSpace) Unmap(vaddr, length uint64) {
	as.gen++
	for off := uint64(0); off < length; off += PageSize {
		delete(as.pages, (vaddr+off)>>PageBits)
	}
}

// Mprotect changes the RWX permissions of the pages covering
// [vaddr, vaddr+length). It models the mprotect syscall: callers that model
// timing must add the syscall + TLB-shootdown cost (see internal/isolation).
func (as *AddressSpace) Mprotect(vaddr, length uint64, prot Prot) error {
	return as.updatePages(vaddr, length, func(p *PTE) { p.Prot = prot })
}

// PkeyAlloc reserves a free protection key, like pkey_alloc(2).
func (as *AddressSpace) PkeyAlloc() (int, error) {
	for k := 1; k < mpk.NumKeys; k++ {
		if !as.pkeyUsed[k] {
			as.pkeyUsed[k] = true
			return k, nil
		}
	}
	return 0, fmt.Errorf("mem: no free protection keys")
}

// PkeyFree releases a key allocated with PkeyAlloc.
func (as *AddressSpace) PkeyFree(k int) error {
	if k <= 0 || k >= mpk.NumKeys || !as.pkeyUsed[k] {
		return fmt.Errorf("mem: pkey %d not allocated", k)
	}
	as.pkeyUsed[k] = false
	return nil
}

// PkeyMprotect assigns pkey (and permissions) to the pages covering
// [vaddr, vaddr+length), like pkey_mprotect(2). This is the "pKey
// assignment" step of the MPK working principle (paper §II-A1).
func (as *AddressSpace) PkeyMprotect(vaddr, length uint64, prot Prot, pkey int) error {
	if pkey < 0 || pkey >= mpk.NumKeys {
		return fmt.Errorf("mem: pkey %d out of range", pkey)
	}
	if !as.pkeyUsed[pkey] {
		return fmt.Errorf("mem: pkey %d not allocated", pkey)
	}
	return as.updatePages(vaddr, length, func(p *PTE) {
		p.Prot = prot
		p.PKey = uint8(pkey)
	})
}

func (as *AddressSpace) updatePages(vaddr, length uint64, f func(*PTE)) error {
	if vaddr%PageSize != 0 {
		return fmt.Errorf("mem: unaligned address 0x%x", vaddr)
	}
	// Verify the whole range first so the update is all-or-nothing.
	for off := uint64(0); off < length; off += PageSize {
		if _, ok := as.pages[(vaddr+off)>>PageBits]; !ok {
			return &Fault{Kind: FaultPage, Addr: vaddr + off, Access: Read}
		}
	}
	as.gen++
	for off := uint64(0); off < length; off += PageSize {
		vpn := (vaddr + off) >> PageBits
		pte := as.pages[vpn]
		f(&pte)
		as.pages[vpn] = pte
	}
	return nil
}

// Lookup returns the PTE mapping vaddr without permission checks.
func (as *AddressSpace) Lookup(vaddr uint64) (PTE, bool) {
	pte, ok := as.pages[vaddr>>PageBits]
	return pte, ok
}

// Translate walks the page table and enforces the PTE RWX bits (but not
// PKRU; the caller holds the thread's PKRU). Returns the physical address.
func (as *AddressSpace) Translate(vaddr uint64, a AccessKind) (uint64, PTE, error) {
	pte, ok := as.pages[vaddr>>PageBits]
	if !ok || !pte.Valid {
		return 0, PTE{}, &Fault{Kind: FaultPage, Addr: vaddr, Access: a}
	}
	if !pte.AllowsProt(a) {
		return 0, pte, &Fault{Kind: FaultProt, Addr: vaddr, Access: a}
	}
	return pte.PPN<<PageBits | vaddr&(PageSize-1), pte, nil
}

// Access translates and additionally enforces PKRU through the page's pKey,
// applying the "most strict wins" rule of Figure 1. Exec accesses are not
// subject to PKRU (MPK governs data accesses only).
func (as *AddressSpace) Access(vaddr uint64, a AccessKind, pkru mpk.PKRU) (uint64, PTE, error) {
	paddr, pte, err := as.Translate(vaddr, a)
	if err != nil {
		return 0, pte, err
	}
	if a != Exec && !pkru.Allows(int(pte.PKey), a == Write) {
		return 0, pte, &Fault{Kind: FaultPkey, Addr: vaddr, Access: a, PKey: int(pte.PKey)}
	}
	return paddr, pte, nil
}

// ReadVirt64 is a harness convenience: translate (read, PKRU ignored) and
// load 8 bytes. It is used by tests and result digests, not by simulated
// instructions.
func (as *AddressSpace) ReadVirt64(vaddr uint64) (uint64, error) {
	paddr, _, err := as.Translate(vaddr, Read)
	if err != nil {
		return 0, err
	}
	return as.Phys.Read64(paddr), nil
}

// WriteVirt64 translates (write, PKRU ignored) and stores 8 bytes.
func (as *AddressSpace) WriteVirt64(vaddr uint64, v uint64) error {
	paddr, _, err := as.Translate(vaddr, Write)
	if err != nil {
		return err
	}
	as.Phys.Write64(paddr, v)
	return nil
}

// WriteVirtBytes translates page by page (write) and stores b.
func (as *AddressSpace) WriteVirtBytes(vaddr uint64, b []byte) error {
	for i := 0; i < len(b); {
		paddr, _, err := as.Translate(vaddr+uint64(i), Write)
		if err != nil {
			return err
		}
		n := PageSize - int(paddr&(PageSize-1))
		if n > len(b)-i {
			n = len(b) - i
		}
		as.Phys.WriteBytes(paddr, b[i:i+n])
		i += n
	}
	return nil
}

// ReadVirtBytes translates page by page (read) and fetches n bytes.
func (as *AddressSpace) ReadVirtBytes(vaddr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; {
		paddr, _, err := as.Translate(vaddr+uint64(i), Read)
		if err != nil {
			return nil, err
		}
		chunk := min(PageSize-int(paddr&(PageSize-1)), n-i)
		as.Phys.ReadInto(out[i:i+chunk], paddr)
		i += chunk
	}
	return out, nil
}
