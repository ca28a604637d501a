/**
 * @file
 * Binary serialization of event traces ("SNPE") — the "send to
 * cloud" transport of the paper's Fig. 10 flow. Format is a small
 * versioned little-endian encoding over util::ByteBuffer, with file
 * save/load helpers. The replayed profile travels as SNCT training
 * sections (columnar_log.h), the model as an SNPM package
 * (core/model_codec.h).
 *
 * Decoding is *recoverable*: these buffers arrive over real
 * transports, so a malformed, truncated, or version-mismatched
 * input returns an error Status instead of terminating — the caller
 * drops the upload (or falls back to baseline execution) and keeps
 * running.
 */

#ifndef SNIP_TRACE_TRACE_LOG_H
#define SNIP_TRACE_TRACE_LOG_H

#include <string>

#include "trace/profile.h"
#include "util/bytes.h"
#include "util/status.h"

namespace snip {
namespace trace {

/** Serialize an event trace. */
void encodeEventTrace(const EventTrace &trace, util::ByteBuffer &buf);
/** Deserialize an event trace; error Status on malformed input. */
util::Status decodeEventTrace(util::ByteBuffer &buf, EventTrace *out);

/** Write a buffer to a file; error Status on I/O errors. */
util::Status saveBuffer(const util::ByteBuffer &buf,
                        const std::string &path);
/** Read a file into a buffer; error Status on I/O errors. */
util::Status loadBuffer(const std::string &path,
                        util::ByteBuffer *out);

}  // namespace trace
}  // namespace snip

#endif  // SNIP_TRACE_TRACE_LOG_H
