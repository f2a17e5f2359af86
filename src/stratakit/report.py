"""Deterministic report assembly: text and machine renderings.

A Report is an ordered list of (section, key, value) entries.  The machine
rendering is stable `section.key = value` lines; the text rendering groups by
section.  Both are byte-identical across runs on the same input.
"""


class Report:
    def __init__(self):
        self.entries = []                # (section, key, value)
        self.failures = 0

    def add(self, section, key, value):
        self.entries.append((section, key, value))

    def add_check(self, section, key, passed, detail=""):
        """passed: True/False/None (informational)."""
        if passed is False:
            self.failures += 1
        status = {True: "pass", False: "fail", None: "info"}[passed]
        value = f"{status}" + (f" ({detail})" if detail else "")
        self.entries.append((section, key, value))

    @property
    def ok(self):
        return self.failures == 0

    def machine(self):
        lines = [f"{section}.{key} = {value}"
                 for section, key, value in self.entries]
        return "\n".join(lines) + "\n"

    def text(self):
        lines = []
        current = None
        for section, key, value in self.entries:
            if section != current:
                if current is not None:
                    lines.append("")
                lines.append(f"[{section}]")
                current = section
            lines.append(f"  {key}: {value}")
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        return self.machine() if fmt == "machine" else self.text()
