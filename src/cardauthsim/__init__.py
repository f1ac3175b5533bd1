"""Executable model of a hash-and-XOR smart-card login scheme, the four
practical attacks that break it, and a deterministic simulation harness."""
