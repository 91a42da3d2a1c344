"""Same-machine benchmark of the veDB/AStore reproduction (see README.md)."""
