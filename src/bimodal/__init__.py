"""Bimodal logic toolkit.

Formula ASTs and macro expanders, finite bimodal Kripke models with a
model checker, alternating Turing machines, counter and machine-encoding
formula generators with witness-model constructors and accepting-tree
extractors, satisfiability-preserving translations between frame classes,
and a bounded-model satisfiability oracle.
"""

from . import (formula, catalog, semantics, atm, reduction, red_ssl, red_s4s5,
               translations, satbound)

__all__ = ["formula", "catalog", "semantics", "atm", "reduction", "red_ssl",
           "red_s4s5", "translations", "satbound"]
