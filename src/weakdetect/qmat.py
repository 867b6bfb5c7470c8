"""Empty: the program calls numpy directly (kept until the benchmark stops importing it)."""
