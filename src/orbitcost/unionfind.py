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

    def canonical(self) -> list[int]:
        """Per-atom representative array; representative = least atom of the component."""
        find = self.find
        rep: dict[int, int] = {}
        out = [0] * len(self.parent)
        for x in range(len(self.parent)):
            r = find(x)
            if r not in rep:
                rep[r] = x  # ascending scan, first sighting is the minimum
            out[x] = rep[r]
        return out
