"""Java source front end: lexer, parser, and the structural models they build."""
