"""Linear memory over a rewired address space.

A module's memory is a facade over a
:class:`repro.storage.rewiring.AddressSpace`: the page table translates
32-bit addresses to host buffers, so table columns mapped by the host are
readable zero-copy — the paper's ``SetModuleMemory()`` patch plus rewiring
(Section 6).

Three access paths exist:

* the method API here (used by the reference interpreter and the host);
* the raw ``pages`` list, inlined by the tier compilers: ``(buffer,
  base)`` per 64 KiB page, read and written with ``struct``;
* typed page tables (:meth:`AddressSpace.typed_pages`), inlined by
  TurboFan for accesses aligned to their width: per page, the backing
  bytes as a ``memoryview`` cast to one element format, so an access is
  ``table[a >> 16][(a & 0xFFFF) >> log2(width)]``.  The address space
  builds a table on first request, only for the formats compiled code
  asks for, and keeps it current through mapping, re-wiring and
  ``memory.grow``.  An aligned access never crosses a page; unaligned
  ones take the ``struct`` path.

Whatever the path, an access that runs past its page's buffer falls back
to :meth:`LinearMemory.load_across`/:meth:`LinearMemory.store_across`,
which read and write byte-wise across mappings — linear memory is one
consecutive region even where two host buffers meet (``memory.grow``
maps a fresh buffer after the old end) — and trap only on a byte that is
unmapped or past the last mapping.
"""

from __future__ import annotations

import struct

from repro.errors import ResourceExhausted, Trap
from repro.storage.rewiring import WASM_PAGE_SIZE, AddressSpace

__all__ = ["LinearMemory"]

_PAGE_MASK = WASM_PAGE_SIZE - 1

_LOAD_FMT = {
    "i32.load": ("<i", 4), "i64.load": ("<q", 8),
    "f32.load": ("<f", 4), "f64.load": ("<d", 8),
    "i32.load8_s": ("<b", 1), "i32.load8_u": ("<B", 1),
    "i32.load16_s": ("<h", 2), "i32.load16_u": ("<H", 2),
    "i64.load8_s": ("<b", 1), "i64.load8_u": ("<B", 1),
    "i64.load16_s": ("<h", 2), "i64.load16_u": ("<H", 2),
    "i64.load32_s": ("<i", 4), "i64.load32_u": ("<I", 4),
}
_STORE_FMT = {
    "i32.store": ("<i", 4), "i64.store": ("<q", 8),
    "f32.store": ("<f", 4), "f64.store": ("<d", 8),
    "i32.store8": ("<B", 1), "i32.store16": ("<H", 2),
    "i64.store8": ("<B", 1), "i64.store16": ("<H", 2),
    "i64.store32": ("<I", 4),
}
_STORE_MASK = {
    "i32.store8": 0xFF, "i32.store16": 0xFFFF,
    "i64.store8": 0xFF, "i64.store16": 0xFFFF, "i64.store32": 0xFFFFFFFF,
}


class LinearMemory:
    """A module's linear memory, backed by an :class:`AddressSpace`."""

    #: Optional :class:`repro.robustness.FaultInjector`; when set, the
    #: ``memory.grow`` site is consulted before pages are handed out.
    fault_injector = None

    def __init__(self, space: AddressSpace | None = None, min_pages: int = 1,
                 max_pages: int | None = None):
        if space is None:
            # A private, spec-conformant memory: valid from address 0.
            space = AddressSpace(max_pages=max_pages or 1 << 16, first_page=0)
            if min_pages:
                space.alloc("__initial__", min_pages * WASM_PAGE_SIZE)
        self.space = space
        self.pages = space.pages  # the fast path for generated code

    @property
    def size_pages(self) -> int:
        """Current memory size in 64 KiB pages (``memory.size``)."""
        return self.space._next_page

    def grow(self, delta_pages: int) -> int:
        """``memory.grow``: returns the old size or -1 on failure.

        A failure *inside the Wasm semantics* (address space full) keeps
        the spec behavior and returns -1.  A failure of the *host policy*
        — the query's page budget (:class:`ResourceExhausted`, raised by
        the governor attached to the address space, or injected at the
        ``memory.grow`` fault site) — escapes to the host so the fallback
        chain can degrade the query instead of letting generated code
        limp on with a failed allocation.
        """
        old = self.size_pages
        if delta_pages == 0:
            return old
        if self.fault_injector is not None:
            self.fault_injector.check("memory.grow")
        try:
            self.space.alloc(f"__grow_{old}__", delta_pages * WASM_PAGE_SIZE)
        except ResourceExhausted:
            raise
        except Exception:
            return -1
        return old

    # -- typed access (interpreter / host path) -----------------------------

    def load(self, op: str, addr: int) -> int | float:
        fmt, _ = _LOAD_FMT[op]
        addr &= 0xFFFFFFFF
        try:
            buf, base = self.pages[addr >> 16]
            return struct.unpack_from(fmt, buf, base + (addr & _PAGE_MASK))[0]
        except (TypeError, struct.error, IndexError):
            pass
        # slow path: crosses into another mapping or is out of bounds
        return self.load_across(fmt, addr)

    def store(self, op: str, addr: int, value) -> None:
        fmt, size = _STORE_FMT[op]
        addr &= 0xFFFFFFFF
        mask = _STORE_MASK.get(op)
        if mask is not None:
            value = value & mask
        try:
            buf, base = self.pages[addr >> 16]
            struct.pack_into(fmt, buf, base + (addr & _PAGE_MASK), value)
            return
        except (TypeError, struct.error, IndexError):
            pass
        try:
            self.space.write(addr, struct.pack(fmt, value))
        except Exception:
            raise Trap("out of bounds memory access", f"store at {addr:#x}") from None

    # -- slow path of the compiled tiers ------------------------------------

    def load_across(self, fmt: str, addr: int):
        """``struct`` format ``fmt`` at ``addr``, which ran past the end of
        its page's buffer: read byte-wise across pages, or trap."""
        return struct.unpack(fmt, self.read_bytes(addr, struct.calcsize(fmt)))[0]

    def store_across(self, fmt: str, addr: int, value) -> None:
        """The store counterpart of :meth:`load_across`."""
        self.write_bytes(addr, struct.pack(fmt, value))

    # -- bulk access (host convenience) -----------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        try:
            return self.space.read(addr & 0xFFFFFFFF, size)
        except Exception:
            raise Trap("out of bounds memory access", f"read at {addr:#x}") from None

    def write_bytes(self, addr: int, data: bytes) -> None:
        try:
            self.space.write(addr & 0xFFFFFFFF, data)
        except Exception:
            raise Trap("out of bounds memory access", f"write at {addr:#x}") from None
