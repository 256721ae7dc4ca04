//! Standard output for the command-line tools.

use std::io::{self, StdoutLock, Write};

/// Locked standard output that goes quiet once its reader has gone away.
///
/// A pipeline such as `runtime … | head -1` closes the pipe long before
/// the tool finishes writing. The rest of the output was not wanted, so a
/// write that fails with [`io::ErrorKind::BrokenPipe`] ends the output,
/// not the program: it and every later write report success without
/// writing, and the exit status still says what the tool found (an
/// `analyze --fail-on-overflow` verdict survives `| head`). Every other
/// write error passes through.
#[derive(Debug)]
pub struct Stdout {
    inner: StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    /// Locks the process's standard output.
    pub fn lock() -> Self {
        Stdout {
            inner: io::stdout().lock(),
            closed: false,
        }
    }

    fn quiet_on_close<T>(&mut self, done: T, r: io::Result<T>) -> io::Result<T> {
        match r {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(done)
            }
            r => r,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let r = self.inner.write(buf);
        self.quiet_on_close(buf.len(), r)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let r = self.inner.flush();
        self.quiet_on_close((), r)
    }
}
