"""Lazy package exports (PEP 562).

Each ``repro`` package declares its public names and the modules that
define them; a name is imported on its first access.  Importing a
package therefore loads none of its submodules, and a command loads
only the modules its code path touches.
"""

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package`` (``".engine"``, ``"..hw.calibration"``).  A
    name mapped to the submodule of the same name (``"tasks": ".tasks"``)
    is that module.  A resolved name is bound in the package's globals,
    so later lookups never reach ``__getattr__``.
    """

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source, package)
        value = module if source.rpartition(".")[2] == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return list(exports), __getattr__, __dir__
