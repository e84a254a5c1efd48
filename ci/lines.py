"""Each change reports its net src/ line count, in all and per module;
the log keeps it.  Then the same count in code lines, which is how a
simplification is judged: a line counts when it holds a token that is
not a comment, and it is not part of a module, class or function
docstring."""
import ast, io, pathlib, tokenize
paths = sorted(pathlib.Path("src/hecke").glob("*.py"))
texts = [path.read_text(encoding="utf-8") for path in paths]
raw = [text.count("\n") for text in texts]
print(f"src/ lines: {sum(raw)}")
for path, count in zip(paths, raw):
    print(f"{count:6d} {path}")
skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
scopes = (ast.Module, ast.ClassDef, ast.FunctionDef,
          ast.AsyncFunctionDef)
total = 0
for path, text in zip(paths, texts):
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, scopes)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total += len(code - docs)
    print(f"{len(code - docs):6d} {path}")
print(f"src/ code lines: {total}")
