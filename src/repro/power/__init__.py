"""Energy and area models (the CACTI/McPAT stand-ins of Section 5.1)."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "area": (
        "AreaReport", "NEHALEM_CORE_MM2", "PAPER_ACCEL_MM2",
        "accelerator_area_report",
    ),
    "cacti": ("SramEstimate", "estimate_sram"),
    "mcpat": ("EnergyLedger", "NJ_PER_UOP", "energy_savings"),
})
