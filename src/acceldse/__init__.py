"""Design-space exploration for LLM inference on systolic-array accelerators."""

__version__ = "0.1.0"
