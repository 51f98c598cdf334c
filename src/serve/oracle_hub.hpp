// serve's name for the campaign resource hub, which lives in apr (see
// apr/oracle_hub.hpp).  New code includes the apr header directly.
#pragma once

#include "apr/oracle_hub.hpp"

namespace mwr::serve {

using OracleHub = apr::OracleHub;

}  // namespace mwr::serve
