"""Software runtime substrate: the HHVM-like layer the accelerators offload.

Contents
--------
* :mod:`repro.runtime.values`   — typed PHP cells, refcount/type-check events
* :mod:`repro.runtime.phparray` — insertion-ordered hash map (PHP array)
* :mod:`repro.runtime.slab`     — slab allocator with per-class usage tracking
* :mod:`repro.runtime.strings`  — SSE-cost-modeled string library
* :mod:`repro.runtime.symbols`  — symbol tables, ``extract``/``compact``
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "interp": (
        "AcceleratedBackend", "MiniPhpError", "MiniPhpInterpreter",
        "SoftwareBackend", "split_template", "tokenize_code",
    ),
    "phparray": ("PhpArray", "php_array_hash"),
    "slab": (
        "CHUNK_BYTES", "SLAB_CLASS_BOUNDS", "SlabAllocator", "slab_class_for",
    ),
    "strings": ("StringLibrary", "StringOpResult"),
    "symbols": ("ScopeStack", "SymbolTable"),
    "values": ("PhpType", "PhpValue", "ValueRuntime"),
})
