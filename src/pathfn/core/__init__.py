"""Core layer: scalar arithmetic, grid geometry, the function catalog, and
the function-spec document format."""
