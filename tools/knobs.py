"""List the defaulted parameters of widthlab's public callables.

Walks `widthlab.__all__`: each function, each class constructor and each
public method a class defines itself.  Prints one `name(param)` line per
parameter with a default value, then the total.

    python3 tools/knobs.py
"""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import widthlab  # noqa: E402


def _callables():
    """(display name, callable) for every public function, constructor and method."""
    for name in widthlab.__all__:
        obj = getattr(widthlab, name)
        if inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod))
                ):
                    yield f"{name}.{attr}", getattr(obj, attr)
        elif callable(obj):
            yield name, obj


def knobs() -> list[str]:
    out = []
    for name, fn in _callables():
        try:
            params = inspect.signature(fn).parameters.values()
        except ValueError:  # a builtin constructor, such as Exception's
            continue
        out.extend(f"{name}({p.name})" for p in params if p.default is not p.empty)
    return out


def main() -> None:
    found = knobs()
    for line in found:
        print(line)
    print(f"total {len(found)}")


if __name__ == "__main__":
    main()
