"""repro — behavioral reproduction of *Architectural Support for
Server-Side PHP Processing* (Gope, Schlais, Lipasti; ISCA 2017).

The package is organized bottom-up:

* :mod:`repro.common`    — deterministic RNG, stat counters
* :mod:`repro.runtime`   — HHVM-like software substrate (values, PHP
  arrays, slab allocator, string library, symbol tables)
* :mod:`repro.regex`     — PCRE-subset engine (parser/NFA/DFA/FSM)
* :mod:`repro.uarch`     — trace-driven microarchitecture models
  (TAGE, BTB, caches, core timing)
* :mod:`repro.workloads` — WordPress/Drupal/MediaWiki/SPECWeb-like
  operation-trace generators and the load driver
* :mod:`repro.optim`     — the four prior-work abstraction-overhead
  mitigations (Section 3)
* :mod:`repro.accel`     — the paper's contribution: the four
  accelerators (Section 4)
* :mod:`repro.isa`       — ISA extensions and dispatch (Section 4.6)
* :mod:`repro.power`     — CACTI/McPAT-like energy & area models
* :mod:`repro.core`      — experiment harness reproducing Sections 2,
  3, and 5 (every figure)

Every subpackage re-exports its public names through
:func:`lazy_exports`, so importing one submodule loads only what that
submodule imports, never its siblings.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """A package façade that imports each name's submodule on first use.

    ``table`` maps a submodule of ``package`` to the names it exports.
    Returns ``(__all__, __getattr__, __dir__)`` for the package to bind
    (PEP 562): ``__all__`` lists every name in table order, and the
    first read of a name imports its submodule and caches the value on
    the package.
    """
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"),
                        name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return list(owners), __getattr__, __dir__
