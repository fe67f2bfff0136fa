"""The tests' own overlap walk, the reference the overlap kernel of
``tfim.spinrep`` is compared with: it splits each window at every flip of
either site and reads the spin product at the midpoint of every piece."""


def ref_overlap(config, x, y, windows):
    """int sigma(x,t) sigma(y,t) dt of a whole-line configuration over the
    windows, which may wrap past t_max on the circle; pieces added in order
    from 0.0."""
    region = config.region
    tx = config.flips.get(x, [])
    ty = config.flips.get(y, [])
    total = 0.0
    for (lo, hi) in windows:
        breaks = [lo]
        for ts in (tx, ty):
            breaks.extend(t for t in ts if lo < t < hi)
        if hi > region.t_max and region.time_topology == "circle":
            for ts in (tx, ty):
                breaks.extend(t + region.r for t in ts if region.t_min < t < hi - region.r)
        breaks.append(hi)
        breaks.sort()
        for i in range(len(breaks) - 1):
            a, b = breaks[i], breaks[i + 1]
            if b <= a:
                continue
            mid = (a + b) / 2.0
            base = mid if mid <= region.t_max else mid - region.r
            total += (b - a) * config.value(x, base) * config.value(y, base)
    return total


def ref_log_weight(config, lam, edges):
    """lam times the whole-line overlaps of the edges, added edge by edge
    from 0.0."""
    region = config.region
    total = 0.0
    for (x, y) in edges:
        total += ref_overlap(config, x, y, [(region.t_min, region.t_max)])
    return lam * total
