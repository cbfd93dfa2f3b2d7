"""The public names: declared once in each module, re-exported by the package."""
from __future__ import annotations

import dataclasses
import importlib

import gcdheights
from gcdheights import PrimeSet

MODULES = ("arith", "elliptic", "gcd_height", "mulgrp", "experiments")

# Second routes to quantities the sweeps compute; removed from the library.
DELETED = {
    "mulgrp": ("MulPoint", "MulDivSeq", "power", "mul_D", "mul_seq"),
    "elliptic": ("gcd_D", "hgcd_e2", "hgcd_e2_local_sum", "siegel_ratio"),
}


def test_public_names_are_declared_once():
    modules = [importlib.import_module(f"gcdheights.{m}") for m in MODULES]
    declared = [name for mod in modules for name in mod.__all__]
    assert gcdheights.__all__ == declared
    assert len(set(declared)) == len(declared)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(gcdheights, name) is getattr(mod, name)
    star: dict = {}
    exec("from gcdheights import *", star)
    assert set(star) - {"__builtins__"} == set(declared)
    for mod, names in DELETED.items():
        for name in names:
            assert not hasattr(gcdheights, name)
            assert not hasattr(importlib.import_module(f"gcdheights.{mod}"), name)
    assert [f.name for f in dataclasses.fields(PrimeSet)] == ["primes"]
