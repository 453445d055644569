"""ISA extensions (Section 4.6) and the accelerator complex."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "dispatch": ("AcceleratorComplex", "ComplexConfig"),
    "multicore": ("CoherenceEvent", "MulticoreSystem"),
    "instructions": (
        "ISA_EXTENSIONS", "Instruction", "REGEX_API", "Unit", "instruction",
    ),
})
