"""One benchmark for the forecaster and its serving stack (see NOTES.md)."""
