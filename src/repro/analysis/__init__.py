"""Figure sweep specs and assemblers, tables, calibration anchors, and
terminal rendering."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ANCHORS": "..hw.calibration",
    "PaperAnchors": "..hw.calibration",
    "Fig5Result": ".figures",
    "Fig8Result": ".figures",
    "Fig10Result": ".figures",
    "fig3_from_sweep": ".figures",
    "fig3_sweep_spec": ".figures",
    "fig4_from_sweep": ".figures",
    "fig4_sweep_spec": ".figures",
    "fig5_from_sweep": ".figures",
    "fig5_sweep_spec": ".figures",
    "fig7_from_sweep": ".figures",
    "fig7_sweep_spec": ".figures",
    "fig8_from_sweep": ".figures",
    "fig8_sweep_spec": ".figures",
    "fig10_from_sweep": ".figures",
    "fig10_sweep_spec": ".figures",
    "ascii_bars": ".report",
    "ascii_series": ".report",
    "ascii_table": ".report",
    "describe_platform": ".topology_report",
    "path_surface_table": ".topology_report",
    "AnchorCheck": ".validate",
    "validate_anchors": ".validate",
    "TABLE1": ".tables",
    "TABLE2_HEADERS": ".tables",
    "TABLE3": ".tables",
    "TABLE4": ".tables",
    "table2_rows": ".tables",
})
