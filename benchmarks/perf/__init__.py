"""The service's reference benchmark (see README.md in this directory)."""
