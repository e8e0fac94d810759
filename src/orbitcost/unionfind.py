"""Disjoint-set forest over the atoms 0..n-1."""


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.weight = [1] * size
        self.components = size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.weight[ra] < self.weight[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.weight[ra] += self.weight[rb]
        self.components -= 1
        return True

    def union_all(self, sources, targets) -> list[bool]:
        """union(a, b) for each pair of the two sequences in order; which pairs merged.

        find's path halving and union's by-size rule are written out in one
        loop, so an entry costs no Python call.
        """
        parent, weight = self.parent, self.weight
        merged = []
        for a, b in zip(sources, targets):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]  # path halving
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                merged.append(False)
                continue
            if weight[a] < weight[b]:
                a, b = b, a
            parent[b] = a
            weight[a] += weight[b]
            merged.append(True)
        self.components -= merged.count(True)
        return merged

    def canonical(self) -> list[int]:
        """Per-atom representative array; representative = least atom of the component."""
        parent = self.parent
        rep: dict[int, int] = {}
        out = [0] * len(parent)
        for x in range(len(parent)):
            r = x
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]  # path halving
            out[x] = rep.setdefault(r, x)  # ascending scan, first sighting is the minimum
        return out
