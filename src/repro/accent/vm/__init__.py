"""Accent virtual memory: pages, address spaces and accessibility maps."""

from repro.accent.vm.accessibility import (
    BAD_MEM,
    IMAG_MEM,
    REAL_MEM,
    REAL_ZERO_MEM,
    Accessibility,
)
from repro.accent.vm.address_space import AddressSpace, Residency
from repro.accent.vm.amap import AMap, AMapRun
from repro.accent.vm.intervals import IntervalMap
from repro.accent.vm.page import Page
from repro.accent.vm.physical import OutOfFrames, PhysicalMemory

__all__ = [
    "AMap",
    "AMapRun",
    "Accessibility",
    "AddressSpace",
    "BAD_MEM",
    "IMAG_MEM",
    "IntervalMap",
    "OutOfFrames",
    "Page",
    "PhysicalMemory",
    "REAL_MEM",
    "REAL_ZERO_MEM",
    "Residency",
]
