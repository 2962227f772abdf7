"""Small shared helpers: argument validation, RNG plumbing and sampling."""
