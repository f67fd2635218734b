"""Set-up of each workload: import rinfinity and build what its queries use.

`setup_s` is the time a fresh interpreter spends in `build`.  This module
therefore imports nothing at load time, so that the probe pays the
library's own imports and constructions and nothing of the benchmark's.
"""


def repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent


def import_library():
    """Import rinfinity from this checkout's `src`, never from elsewhere."""
    import sys
    from pathlib import Path

    src = repo_root() / "src"
    if not (src / "rinfinity" / "__init__.py").is_file():
        raise ImportError(f"no rinfinity sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rinfinity

    if src not in Path(rinfinity.__file__).resolve().parents:
        raise ImportError(f"rinfinity was imported from {rinfinity.__file__}, not from {src}")
    return rinfinity


def _thompson():
    from rinfinity import braided, numbers, treepairs

    trees = {"a": treepairs.X0, "b": treepairs.X1}
    trees.update({k.upper(): treepairs.inverse(v) for k, v in list(trees.items())})
    pl = {k: treepairs.to_pl(v) for k, v in trees.items()}
    diagrams = {}
    for name, d in braided.standard_generators().items():
        diagrams[name] = d
        diagrams[name + "'"] = braided.inverse(d)
    return {
        "tree": trees,
        "pl": pl,
        "braided": diagrams,
        "dyadic_slopes": numbers.SlopeGroup.of(2),
    }


def _golden_pl():
    from rinfinity import numbers, plmaps

    phi = numbers.ONE + numbers.TAU
    f, g, h = plmaps.scaling_family(phi, phi**2, phi**3)
    maps = {"f": f, "g": g, "h": h}
    maps.update({k.upper(): v.inverse() for k, v in list(maps.items())})
    return {"pl": maps, "slopes": numbers.SlopeGroup.of(phi)}


def _lodha_moore():
    from itertools import product

    from rinfinity import lodha_moore

    letters = {}
    for depth in range(4):
        for address in product((0, 1), repeat=depth):
            for kind in ("x", "y"):
                for sign in (1, -1):
                    letters[(kind, address, sign)] = lodha_moore.LMLetter(kind, address, sign)
    return {"letters": letters}


def _reidemeister():
    from rinfinity import finite_groups, intlinalg, treepairs

    return {
        "groups": finite_groups.small_groups_up_to_16(),
        "f_generators": (treepairs.X0, treepairs.X1),
        "free2": intlinalg.FGAbelianGroup.free(2),
        "negation2": intlinalg.IntMatrix.of([[-1, 0], [0, -1]]),
    }


BUILDERS = {
    "thompson": _thompson,
    "golden_pl": _golden_pl,
    "lodha_moore": _lodha_moore,
    "reidemeister": _reidemeister,
}


def build(workload):
    """Import the library and build the workload's context."""
    import_library()
    return BUILDERS[workload]()
