"""Deterministic assignment of named variable families to atom indices.

Generated formulas refer to propositional variables through a catalog so
that the atom numbering is stable across runs and documented in one place.
A family key is either a bit position (int), a state or symbol name (str),
or None for scalar families such as the class marker B.
"""

from .formula import Atom, FormulaVector
from .relations import ones


class CatalogError(KeyError):
    pass


class VariableCatalog:
    """Injective mapping (family, key) -> atom index."""

    def __init__(self):
        self._atoms = {}
        self._names = {}

    def assign(self, family, key, atom_id):
        entry = (family, key)
        if entry in self._atoms:
            raise CatalogError(f"{entry} already assigned")
        if atom_id in self._names:
            raise CatalogError(f"atom {atom_id} already taken by {self._names[atom_id]}")
        self._atoms[entry] = atom_id
        self._names[atom_id] = entry
        return atom_id

    def assign_next(self, family, key):
        return self.assign(family, key, len(self._atoms))

    def atom(self, family, key=None):
        try:
            return self._atoms[(family, key)]
        except KeyError:
            raise CatalogError(f"catalog has no entry for ({family!r}, {key!r})") from None

    def formula(self, family, key=None):
        return Atom(self.atom(family, key))

    def vector(self, family, length):
        """Bit family as a formula vector, most significant bit first."""
        return FormulaVector.of_atoms(
            [self.atom(family, k) for k in range(length - 1, -1, -1)])

    def bits(self, family, value):
        """The atoms of a bit family at the positions where value has a one,
        highest first."""
        if value < 0:
            raise ValueError(f"bits of {family!r} need a natural number, got {value}")
        return [self.atom(family, k) for k in ones(value)]

    def entries(self):
        """All (family, key, atom) triples in ascending atom order."""
        return [(fam, key, a) for a, (fam, key) in sorted(self._names.items())]

    def __len__(self):
        return len(self._atoms)

    def dump(self):
        lines = []
        for fam, key, a in self.entries():
            key_text = "-" if key is None else str(key)
            lines.append(f"atom {a} {fam} {key_text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text):
        cat = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4 or parts[0] != "atom":
                raise ValueError(f"bad catalog line {lineno}: {line!r}")
            atom_id = int(parts[1])
            fam = parts[2]
            key = None if parts[3] == "-" else parts[3]
            if key is not None:
                try:
                    key = int(key)
                except ValueError:
                    pass
            cat.assign(fam, key, atom_id)
        return cat
