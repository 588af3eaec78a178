"""The default root seed, importable without numpy."""

#: Seed used by experiment presets when the caller does not supply one.
DEFAULT_SEED = 0xC0FFEE
