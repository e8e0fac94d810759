"""Disjoint-set forest over the atoms 0..n-1 whose roots are the least atoms of their sets."""


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))  # parent[x] <= x, so every root is its set's least atom
        self.components = size

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; False if already joined."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        if a < b:  # the larger root goes under the smaller
            a, b = b, a
        parent[a] = b
        self.components -= 1
        return True

    def union_all(self, sources, targets) -> list[bool]:
        """union(a, b) for each pair of the two sequences in order; which pairs merged.

        union's loop is written out here, so an entry costs no Python call.
        """
        parent = self.parent
        merged = []
        for a, b in zip(sources, targets):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]  # path halving
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                merged.append(False)
                continue
            if a < b:
                a, b = b, a
            parent[a] = b
            merged.append(True)
        self.components -= merged.count(True)
        return merged

    def canonical(self) -> list[int]:
        """Per-atom representative array; representative = least atom of the component."""
        out = self.parent[:]
        for x in range(len(out)):  # ascending: out[x] <= x, so out[out[x]] is already a root
            out[x] = out[out[x]]
        return out
