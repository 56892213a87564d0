"""Reference implementations tests compare the product against."""
