"""The composition through the base, pair by pair: the reference that
``classes._composition`` is tested against.

C(x, y) = max over base b of min(v1(x, b), v2(b, y)), computed for one
pair at a time by generators over the base, as the amalgamators did
before they read whole columns.  It shares no code with the library.
"""


def composition_reference(v):
    """A function of (x, y), x a position in the first arm and y one in
    the second, giving (C(x, y), C(y, x)); both are bottom over an empty
    base."""
    lt1, lt2 = v.arm1.pred_tables[0], v.arm2.pred_tables[0]
    n1, n2 = len(v.arm1.universe), len(v.arm2.universe)
    base = v.shared
    bot = v.arm1.chain.bot

    def through(x, y):
        return (
            max((min(lt1[x * n1 + b1], lt2[b2 * n2 + y]) for b1, b2 in base), default=bot),
            max((min(lt2[y * n2 + b2], lt1[b1 * n1 + x]) for b1, b2 in base), default=bot),
        )

    return through
