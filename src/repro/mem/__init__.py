"""Memory substrate: 4 KiB pages, VMAs, and per-process address spaces."""

from .paging import PAGE_SIZE, PAGE_MASK, page_align_down, page_align_up
from .vma import Prot, Vma
from .leaves import PageLeaves, page_digest
from .address_space import AddressSpace

__all__ = ["PAGE_SIZE", "PAGE_MASK", "page_align_down", "page_align_up",
           "Prot", "Vma", "PageLeaves", "page_digest", "AddressSpace"]
