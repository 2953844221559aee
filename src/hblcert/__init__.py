"""Graph certificates for finiteness of Holder-Brascamp-Lieb constants.

The package root defines and re-exports nothing, so importing it loads no
module: import each name from the module that defines it, for example
`from hblcert.presentation import verify_presentation`.
"""
